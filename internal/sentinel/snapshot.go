package sentinel

import (
	"fmt"

	"divscrape/internal/detector"
	"divscrape/internal/sessions"
	"divscrape/internal/statecodec"
)

// tagSentinel opens a sentinel state block in a snapshot.
const tagSentinel uint16 = 0x5E01

var _ detector.ShardedSnapshotter = (*Detector)(nil)

// snapshotIPState and restoreIPState are the sessions value hooks; they
// must stay symmetric field for field. The window's slot count is the
// detector's.
func (d *Detector) snapshotIPState(w *statecodec.Writer, st *ipState) {
	st.limiter.SnapshotInto(w)
	st.window.SnapshotInto(w, &d.window)
	st.uaSeen.SnapshotInto(w)
	w.Bool(st.challengeSolved)
	w.Int(st.pagesNoSolve)
	w.Uint64(st.violations)
	w.Uint64(st.requests)
}

func (d *Detector) restoreIPState(r *statecodec.Reader, st *ipState) error {
	if err := st.limiter.RestoreFrom(r); err != nil {
		return err
	}
	if err := st.window.RestoreFrom(r, &d.window); err != nil {
		return err
	}
	if err := st.uaSeen.RestoreFrom(r); err != nil {
		return err
	}
	st.challengeSolved = r.Bool()
	st.pagesNoSolve = r.Int()
	st.violations = r.Uint64()
	st.requests = r.Uint64()
	return r.Err()
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

// SnapshotShardsInto implements detector.ShardedSnapshotter: the union of
// the shard instances' per-IP state, canonically ordered, so the bytes do
// not depend on how clients were partitioned.
func (d *Detector) SnapshotShardsInto(w *statecodec.Writer, shards []detector.Detector) error {
	stores, err := sentinelStores(shards)
	if err != nil {
		return err
	}
	w.Tag(tagSentinel)
	sessions.SnapshotMerged(w, stores)
	return w.Err()
}

// RestoreShards implements detector.ShardedSnapshotter.
func (d *Detector) RestoreShards(r *statecodec.Reader, shards []detector.Detector, part func(ip uint32) int) error {
	stores, err := sentinelStores(shards)
	if err != nil {
		return err
	}
	if err := r.Expect(tagSentinel); err != nil {
		return err
	}
	return sessions.RestorePartitioned(r, stores, func(k sessions.Key) int { return part(k.IP) })
}

// sentinelStores asserts a shard slice down to the session stores.
func sentinelStores(shards []detector.Detector) ([]*sessions.Store[ipState], error) {
	stores := make([]*sessions.Store[ipState], len(shards))
	for i, s := range shards {
		sd, ok := s.(*Detector)
		if !ok {
			return nil, fmt.Errorf("sentinel: shard %d is %T, not *sentinel.Detector", i, s)
		}
		stores[i] = sd.store
	}
	return stores, nil
}
