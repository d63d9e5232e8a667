package trajectory

import (
	"fmt"

	"divscrape/internal/detector"
	"divscrape/internal/sessions"
	"divscrape/internal/sitemodel"
	"divscrape/internal/statecodec"
)

// tagTrajectory opens a trajectory state block in a snapshot.
const tagTrajectory uint16 = 0x544A

var _ detector.ShardedSnapshotter = (*Detector)(nil)

// snapshotSession and restoreSession are the sessions value hooks; they
// must stay symmetric field for field. The model itself is NOT part of the state: it is training-time configuration,
// and restore legitimately pairs a checkpoint with the same model the
// writer used (the seed convention guarantees it).
func snapshotSession(w *statecodec.Writer, st *session) {
	w.Uint64(st.count)
	w.Uint64(st.pages)
	w.Uint64(st.assets)
	w.Uint64(st.apiCalls)
	w.Uint64(st.transitions)
	w.Uint64(st.teleports)
	w.Float64(st.surprise)
	w.Uint8(uint8(st.prevKind + 1)) // -1 (none) shifts to 0
	w.Uint64(st.views)
	st.products.SnapshotInto(w)
	w.Uint32(uint32(len(st.kinds)))
	for _, n := range st.kinds {
		w.Uint32(n)
	}
}

func restoreSession(r *statecodec.Reader, st *session) error {
	st.count = r.Uint64()
	st.pages = r.Uint64()
	st.assets = r.Uint64()
	st.apiCalls = r.Uint64()
	st.transitions = r.Uint64()
	st.teleports = r.Uint64()
	st.surprise = r.Float64()
	prev := r.Uint8()
	st.views = r.Uint64()
	if err := st.products.RestoreFrom(r); err != nil {
		return err
	}
	nk := r.Count(4)
	if r.Err() != nil {
		return r.Err()
	}
	if nk != kindCount {
		return fmt.Errorf("%w: %d page kinds, want %d", statecodec.ErrCorrupt, nk, kindCount)
	}
	for i := 0; i < nk; i++ {
		st.kinds[i] = r.Uint32()
	}
	if r.Err() != nil {
		return r.Err()
	}
	if prev > uint8(sitemodel.KindCount) {
		return fmt.Errorf("%w: previous kind %d", statecodec.ErrCorrupt, prev)
	}
	st.prevKind = int8(prev) - 1
	return nil
}

// SnapshotInto implements detector.Snapshotter.
func (d *Detector) SnapshotInto(w *statecodec.Writer) {
	if err := d.SnapshotShardsInto(w, []detector.Detector{d}); err != nil {
		w.Fail(err)
	}
}

// RestoreFrom implements detector.Snapshotter.
func (d *Detector) RestoreFrom(r *statecodec.Reader) error {
	return d.RestoreShards(r, []detector.Detector{d}, func(uint32) int { return 0 })
}

// SnapshotShardsInto implements detector.ShardedSnapshotter.
func (d *Detector) SnapshotShardsInto(w *statecodec.Writer, shards []detector.Detector) error {
	stores, err := trajectoryStores(shards)
	if err != nil {
		return err
	}
	w.Tag(tagTrajectory)
	sessions.SnapshotMerged(w, stores)
	return w.Err()
}

// RestoreShards implements detector.ShardedSnapshotter. Sessions are
// keyed by (IP, User-Agent) but partitioned by IP alone — the same rule
// the sharded pipeline and httpguard route requests by — so every
// session of one client lands on that client's shard.
func (d *Detector) RestoreShards(r *statecodec.Reader, shards []detector.Detector, part func(ip uint32) int) error {
	stores, err := trajectoryStores(shards)
	if err != nil {
		return err
	}
	if err := r.Expect(tagTrajectory); err != nil {
		return err
	}
	return sessions.RestorePartitioned(r, stores, func(k sessions.Key) int { return part(k.IP) })
}

// trajectoryStores asserts a shard slice down to the session stores.
func trajectoryStores(shards []detector.Detector) ([]*sessions.Store[session], error) {
	stores := make([]*sessions.Store[session], len(shards))
	for i, s := range shards {
		td, ok := s.(*Detector)
		if !ok {
			return nil, fmt.Errorf("trajectory: shard %d is %T, not *trajectory.Detector", i, s)
		}
		stores[i] = td.store
	}
	return stores, nil
}
