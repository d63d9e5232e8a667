package mitigate

import (
	"time"

	"divscrape/internal/instant"
)

// Cluster replication support. A ClientDigest is one client's complete
// ladder position — the same fields the snapshot codec serialises — in a
// form a peer engine can merge. Digests flow between cluster nodes as
// periodic state deltas: the owner of a client streams its updates, and
// replicas fold them in with last-writer-wins semantics keyed on
// LastSeen, which is monotone per client (Apply requires non-decreasing
// timestamps), so replay, duplication and reordering of deltas all
// converge to the owner's state. That idempotence is what lets the
// cluster transport retry and re-send whole windows after a partition
// heals without a reconciliation protocol.

// ClientDigest is one client's ladder position in replicable form.
type ClientDigest struct {
	// Key is the client key (the derived remote address).
	Key string
	// Score is the decayed suspicion integral as of LastSeen.
	Score float64
	// Level is the ladder rung.
	Level Action
	// Challenged is the consecutive unanswered-challenge streak.
	Challenged int
	// PassUntil is the solved-challenge exemption window end.
	PassUntil time.Time
	// LastSeen is the client's last activity — the merge version.
	LastSeen time.Time
}

// DigestsSince streams the digests of every client whose state changed at
// or after since (LastSeen >= since, or a pass window opened that is
// still in the future of since). A zero since streams every client —
// the full-state form a joining or healing peer reconciles from.
func (e *Engine) DigestsSince(since time.Time, fn func(ClientDigest)) {
	from := instant.Of(since)
	e.ids.each(func(k clientKey, id uint32) {
		st := e.states.At(id)
		if st.lastSeen < from && st.passUntil <= from {
			return
		}
		fn(ClientDigest{
			Key:        k.String(),
			Score:      st.score,
			Level:      st.level,
			Challenged: int(st.challenged),
			PassUntil:  instant.Time(st.passUntil),
			LastSeen:   instant.Time(st.lastSeen),
		})
	})
}

// MergeDigest folds a replicated digest into the engine with
// last-writer-wins semantics: the digest is applied only when it is
// strictly newer (by LastSeen) than the local state, or the client is
// unknown locally. It reports whether the digest was applied; a stale
// digest is a no-op, which makes merging commutative and idempotent
// across any delivery order. Invalid rungs, and streaks no record holds
// (negative or past math.MaxInt32), are rejected.
func (e *Engine) MergeDigest(d ClientDigest) bool {
	challenged, ok := streak(d.Challenged)
	if d.Level > Block || d.Key == "" || !ok {
		return false
	}
	lastSeen := instant.Of(d.LastSeen)
	if id, known := e.ids.get(d.Key); known && lastSeen <= e.states.At(id).lastSeen {
		return false
	}
	*e.client(d.Key, lastSeen) = clientState{
		score:      d.Score,
		level:      d.Level,
		challenged: challenged,
		passUntil:  instant.Of(d.PassUntil),
		lastSeen:   lastSeen,
	}
	return true
}

// SetEscalationFrozen switches the ladder into (or out of) frozen mode:
// while frozen, clients never climb to a higher rung and the
// unanswered-challenge streak never escalates to Block. Scores keep
// integrating and decaying, and de-escalation still runs, so the engine's
// view of each client stays current — on unfreeze the very next request
// resumes normal climbing from an up-to-date score. A cluster node that
// loses its quorum under the fail-closed degraded policy freezes its
// engines: escalation decisions on state known to be stale are the
// failure mode replication exists to prevent.
func (e *Engine) SetEscalationFrozen(frozen bool) { e.frozen = frozen }

// EscalationFrozen reports whether the ladder is frozen.
func (e *Engine) EscalationFrozen() bool { return e.frozen }
