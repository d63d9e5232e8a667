package httpguard

import (
	"time"

	"divscrape/internal/cluster"
	"divscrape/internal/mitigate"
)

// cluster.Backend implementation: the guard's replicable state plane is
// the ladders in its per-shard mitigation engines. Every method is
// shard.Set's — the pipeline's backend — taken under g.mu shared, the
// guard's topology lock, so replication interleaves safely with serving
// and Rebalance.

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
