package httpguard

import (
	"fmt"

	"divscrape/internal/detector"
	"divscrape/internal/faultinject"
	"divscrape/internal/statecodec"
)

// Fault points the chaos suite arms around the rebalance swap: an
// injected snapshot or restore failure must leave the guard serving on
// its old topology with the topology lock released — never a wedged
// RWMutex or a half-swapped shard set.
var (
	fiRebalanceSnapshot = faultinject.At("httpguard.rebalance.snapshot")
	fiRebalanceRestore  = faultinject.At("httpguard.rebalance.restore")
)

// Live shard rebalancing and guard-level snapshot/restore. Both are built
// on the same mechanism: every stateful component of the shard set — each
// side's session stores and the mitigation engines' client ladders —
// serialises to a canonical, partition-agnostic form
// (detector.SnapshotRole / shard.Set.SnapshotLadder), and that
// form redistributes across any shard count by rehashing each client's
// key with the one partition function (shard.Of). Rebalance does snapshot → rehash → restore entirely in memory
// under the topology lock; Snapshot/Restore expose the same bytes through
// the state codec so a live guard survives a process restart.

// tagGuard opens a guard state block in a snapshot.
const tagGuard uint16 = 0x4755

// Rebalance re-partitions the guard's per-client detection and
// enforcement state across newShards shards, without dropping a request:
// in-flight requests finish on the old topology, requests arriving during
// the swap wait on the topology lock, and every client's sessions,
// suspicion scores and ladder positions move to their new home shard.
// Decisions are unaffected — a client's state follows it, so the action
// stream is identical to a guard that ran with newShards all along.
//
// The swap holds the guard's topology lock exclusively for the duration
// of one full state serialisation and restore; with hundreds of
// thousands of live clients this is milliseconds, the price of turning
// the shard count from a boot-time constant into a runtime tunable.
func (g *Guard) Rebalance(newShards int) error {
	if newShards <= 0 {
		return fmt.Errorf("httpguard: invalid shard count %d", newShards)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if newShards == len(g.shards) {
		return nil
	}

	w := statecodec.NewWriter()
	g.snapshotShardsLocked(w)
	if err := fiRebalanceSnapshot.Fire(); err != nil {
		w.Fail(err)
	}
	if err := w.Err(); err != nil {
		return fmt.Errorf("httpguard: rebalance snapshot: %w", err)
	}
	err := fiRebalanceRestore.Fire()
	if err == nil {
		err = g.restoreLocked(statecodec.NewReader(w.Bytes()), newShards)
	}
	if err != nil {
		return fmt.Errorf("httpguard: rebalance restore: %w", err)
	}
	return nil
}

// SnapshotInto serialises the guard's full detection and enforcement
// state (all shards merged, counters included) in the canonical
// partition-agnostic form. The topology lock is held exclusively, so the
// snapshot is a consistent cut even on a guard serving live traffic.
func (g *Guard) SnapshotInto(w *statecodec.Writer) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.snapshotShardsLocked(w)
}

// RestoreFrom rebuilds the guard's state from a snapshot, distributing
// clients across the guard's current shard count — which need not match
// the count the snapshot was taken at. The guard's configuration
// (detector tuning, mitigation policy) must match the snapshotting
// guard's. On failure the guard keeps the state it had, never a
// half-restored set.
func (g *Guard) RestoreFrom(r *statecodec.Reader) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.restoreLocked(r, len(g.shards))
}

// restoreLocked swaps in a fresh set of n shards holding the snapshot's
// state; on any failure the serving set is untouched. Caller holds g.mu
// exclusively.
func (g *Guard) restoreLocked(r *statecodec.Reader, n int) error {
	next, err := g.newShards(n)
	if err != nil {
		return err
	}
	if err := restoreShards(r, next); err != nil {
		return err
	}
	g.setShards(next)
	// The cluster plane's fail-closed freeze is guard-level state; the
	// rebuilt engines start thawed and must inherit it.
	if g.escFrozen.Load() {
		g.set.SetEscalationFrozen(true)
	}
	return nil
}

// snapshotShardsLocked writes the fleet counter totals plus the merged
// detector and engine state. Caller holds g.mu exclusively. The guard's
// lock-free action counters are serialised in their own right — they are
// not derivable from the engines' tallies, because challenge-flow
// requests count as allowed without ever reaching an engine.
func (g *Guard) snapshotShardsLocked(w *statecodec.Writer) {
	w.Tag(tagGuard)
	for _, c := range g.sums() {
		w.Uint64(c)
	}
	// One block per side, in side order and untagged by the guard: a pair
	// guard's snapshots keep their original layout, and restore refuses a
	// side-list mismatch via the detectors' own tags.
	roles, err := g.set.Roles()
	if err != nil {
		w.Fail(err)
		return
	}
	for _, role := range roles {
		if err := detector.SnapshotRole(w, role); err != nil {
			w.Fail(err)
			return
		}
	}
	g.set.SnapshotLadder(w)
}

// restoreShards distributes a guard snapshot across a fresh shard set,
// which must be built from the side list the snapshot was written with.
func restoreShards(r *statecodec.Reader, shards []*guardShard) error {
	if err := r.Expect(tagGuard); err != nil {
		return err
	}
	var counters [nCounts]uint64
	for i := range counters {
		counters[i] = r.Uint64()
	}
	if err := r.Err(); err != nil {
		return err
	}
	set := coresOf(shards)
	roles, err := set.Roles()
	if err != nil {
		return err
	}
	for _, role := range roles {
		if err := detector.RestoreRole(r, role, set.Part); err != nil {
			return err
		}
	}
	if err := set.RestoreLadder(r); err != nil {
		return err
	}
	// Fleet counter totals live on the first shard of the restored set.
	for i, c := range counters {
		shards[0].counts[i].Store(c)
	}
	return nil
}
