package httpguard

import (
	"time"

	"divscrape/internal/cluster"
	"divscrape/internal/iprep"
	"divscrape/internal/mitigate"
	"divscrape/internal/sessions"
)

// cluster.Backend implementation: the guard's replicable state plane.
// Ladder digests live in the per-shard mitigation engines — the ladder
// methods are shard.Set's, the ones the pipeline's backend serves too,
// under the guard's topology lock — overlay entries in the shared
// reputation DB, session digests in the per-shard detector stores. Every
// method composes the guard's existing locking — g.mu shared for the
// topology, the shard mutex for per-client state — so replication
// interleaves safely with serving and Rebalance.

// Compile-time check that Guard satisfies the cluster state plane.
var _ cluster.Backend = (*Guard)(nil)

// LadderDigestsSince streams mitigation-ladder digests for clients
// active at or after since across every shard.
func (g *Guard) LadderDigestsSince(since time.Time, fn func(mitigate.ClientDigest)) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.set.LadderDigestsSince(since, fn)
}

// MergeLadderDigest folds a replicated ladder digest into the shard that
// owns the client, last-writer-wins. Digests whose key is not a parseable
// client address are rejected — the shard route would be undefined.
func (g *Guard) MergeLadderDigest(d mitigate.ClientDigest) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.set.MergeLadderDigest(d)
}

// OverlayEntries streams the live temporary reputation-overlay entries.
func (g *Guard) OverlayEntries(fn func(iprep.TempEntry)) {
	g.enricher.Reputation().TempEntries(fn)
}

// MergeOverlayEntry folds a replicated overlay entry into the shared
// reputation DB, longest-lease-wins.
func (g *Guard) MergeOverlayEntry(e iprep.TempEntry) bool {
	return g.enricher.Reputation().MergeTemporary(e)
}

// SessionDigestsSince streams detector-session digests for sessions
// active at or after since, every detector side, across every shard.
func (g *Guard) SessionDigestsSince(since time.Time, fn func(cluster.SessionDigest)) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, s := range g.shards {
		s.Lock()
		for i, d := range s.Dets {
			tag := g.sides[i].digest
			d.(sessionHolder).SessionsSince(since, func(k sessions.Key, last time.Time) {
				fn(cluster.SessionDigest{Side: tag, IP: k.IP,
					UAHash: k.UAHash, LastSeen: last.UnixNano()})
			})
		}
		s.Unlock()
	}
}

// SetEscalationFrozen freezes (or thaws) ladder escalation across every
// shard — the cluster's fail-closed response to quorum loss. The flag is
// guard-level state so Rebalance re-applies it to rebuilt shards.
func (g *Guard) SetEscalationFrozen(frozen bool) {
	g.escFrozen.Store(frozen)
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.set.SetEscalationFrozen(frozen)
}

// EscalationFrozen reports whether ladder escalation is currently frozen.
func (g *Guard) EscalationFrozen() bool { return g.escFrozen.Load() }
