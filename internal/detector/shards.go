package detector

import (
	"fmt"
	"time"

	"divscrape/internal/statecodec"
)

// What every host of a detector list does with it, once: the sharded
// pipeline, the inline guard, the facade's DetectorSet and the CLI all
// build their instances from factories, sweep them through Evictable, and
// — the two sharded hosts — move state between shard counts one role at a
// time. A role is one registered detector's instances across the shard
// set, shard order; a host that is not sharded has roles of one.

// Build constructs one fresh instance per factory, in order.
func Build(factories []Factory) ([]Detector, error) {
	dets := make([]Detector, len(factories))
	for i, f := range factories {
		if f == nil {
			return nil, fmt.Errorf("detector: factory %d is nil", i)
		}
		d, err := f()
		if err != nil {
			return nil, fmt.Errorf("detector: build detector %d: %w", i, err)
		}
		if d == nil {
			return nil, fmt.Errorf("detector: factory %d returned nil detector", i)
		}
		dets[i] = d
	}
	return dets, nil
}

// EvictBefore sweeps every Evictable member of dets and returns the
// number of entries dropped; a member that cannot evict is skipped.
func EvictBefore(dets []Detector, cutoff time.Time) int {
	n := 0
	for _, d := range dets {
		if ev, ok := d.(Evictable); ok {
			n += ev.EvictBefore(cutoff)
		}
	}
	return n
}

// Roles transposes shard-major instance lists (shards[i][j] is detector
// j's instance on shard i, every shard built from the same factories)
// into role-major ones: Roles(shards)[j][i] == shards[i][j].
func Roles(shards [][]Detector) [][]Detector {
	if len(shards) == 0 {
		return nil
	}
	roles := make([][]Detector, len(shards[0]))
	for j := range roles {
		role := make([]Detector, len(shards))
		for i := range shards {
			role[i] = shards[i][j]
		}
		roles[j] = role
	}
	return roles
}

// SnapshotRole writes one role's canonical, partition-agnostic block: a
// ShardedSnapshotter merges its instances; a plain Snapshotter is
// accepted only as a role of one, whose single-instance bytes are by
// definition canonical.
func SnapshotRole(w *statecodec.Writer, role []Detector) error {
	if ss, ok := role[0].(ShardedSnapshotter); ok {
		return ss.SnapshotShardsInto(w, role)
	}
	s, err := singleSnapshotter(role)
	if err != nil {
		return err
	}
	s.SnapshotInto(w)
	return nil
}

// RestoreRole reads the block SnapshotRole wrote into a role of any
// length: each client's state goes to role[part(ip)].
func RestoreRole(r *statecodec.Reader, role []Detector, part func(ip uint32) int) error {
	if ss, ok := role[0].(ShardedSnapshotter); ok {
		return ss.RestoreShards(r, role, part)
	}
	s, err := singleSnapshotter(role)
	if err != nil {
		return err
	}
	return s.RestoreFrom(r)
}

func singleSnapshotter(role []Detector) (Snapshotter, error) {
	s, ok := role[0].(Snapshotter)
	switch {
	case !ok:
		return nil, fmt.Errorf("detector: %s does not support snapshots", role[0].Name())
	case len(role) > 1:
		return nil, fmt.Errorf("detector: %s does not support sharded snapshots", role[0].Name())
	}
	return s, nil
}
