package shard

import (
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/mitigate"
	"divscrape/internal/statecodec"
)

// Set is a key-partitioned shard set, every member built alike; client ip
// lives on set[Of(ip, len(set))]. Its methods are what the hosts do with
// the whole set: move state between shard counts, and serve the cluster
// plane's view of the ladders (the ladder half of cluster.Backend). Those
// that touch engine state take each shard's lock for the touch, so they
// interleave safely with whatever else locks the shards; the hosts' own
// topology locks sit above.
type Set []*Shard

// Roles is the set's detectors role-major: Roles()[j][i] is side j's
// instance on shard i — the shape detector.SnapshotRole and RestoreRole
// move between shard counts. A side still quarantined is handed out as its
// restore would leave it (see asRestored), so a checkpoint or a
// rebalance carries its restore point, or nothing, never the instance that
// panicked. State restored into that stand-in is dropped: the side comes
// back as its restore leaves it anyway. It fails only if a factory does.
func (set Set) Roles() ([][]detector.Detector, error) {
	dets := make([][]detector.Detector, len(set))
	for i, s := range set {
		var err error
		if dets[i], err = s.asRestored(); err != nil {
			return nil, err
		}
	}
	return detector.Roles(dets), nil
}

// Part is the partition function over this set, in the form
// detector.RestoreRole takes.
func (set Set) Part(ip uint32) int { return Of(ip, len(set)) }

func (set Set) engines() []*mitigate.Engine {
	engines := make([]*mitigate.Engine, len(set))
	for i, s := range set {
		engines[i] = s.Engine
	}
	return engines
}

// SnapshotLadder writes the engines' canonical merged block — the bytes
// one engine holding every client would write — with every shard locked:
// a follower checkpoints while peer digests keep arriving.
func (set Set) SnapshotLadder(w *statecodec.Writer) {
	for _, s := range set {
		s.Lock()
		defer s.Unlock()
	}
	mitigate.SnapshotMerged(w, set.engines())
}

// RestoreLadder distributes the block SnapshotLadder wrote across the
// set, whatever shard count wrote it: engines key clients by address
// text, and each goes where OfKey says its requests route. The set must
// not be in use yet.
func (set Set) RestoreLadder(r *statecodec.Reader) error {
	return mitigate.RestorePartitioned(r, set.engines(), func(key string) int {
		i, _ := OfKey(key, len(set))
		return i
	})
}

// Counts sums the engines' lifetime action tallies; the set must be idle.
func (set Set) Counts() mitigate.ActionCounts {
	var c mitigate.ActionCounts
	for _, s := range set {
		c.Add(s.Engine.Counts())
	}
	return c
}

// LadderDigestsSince streams the ladder digests of clients active at or
// after since, every shard.
func (set Set) LadderDigestsSince(since time.Time, fn func(mitigate.ClientDigest)) {
	for _, s := range set {
		s.Lock()
		s.Engine.DigestsSince(since, fn)
		s.Unlock()
	}
}

// MergeLadderDigest folds a replicated digest into the shard that owns
// the client, last-writer-wins. A key that is not a client address is
// refused: it names nobody whose requests could route here.
func (set Set) MergeLadderDigest(d mitigate.ClientDigest) bool {
	i, ok := OfKey(d.Key, len(set))
	if !ok {
		return false
	}
	set[i].Lock()
	defer set[i].Unlock()
	return set[i].Engine.MergeDigest(d)
}

// SetEscalationFrozen freezes or thaws ladder escalation on every shard.
func (set Set) SetEscalationFrozen(frozen bool) {
	for _, s := range set {
		s.Lock()
		s.Engine.SetEscalationFrozen(frozen)
		s.Unlock()
	}
}
