package arcane

import (
	"fmt"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/sessions"
	"divscrape/internal/statecodec"
	"divscrape/internal/uaparse"
)

// tagArcane opens an arcane state block in a snapshot.
const tagArcane uint16 = 0x4A01

var _ detector.ShardedSnapshotter = (*Detector)(nil)

// snapshotSession and restoreSession are the sessions value hooks; they
// must stay symmetric field for field.
func snapshotSession(w *statecodec.Writer, st *session) {
	w.Uint64(st.count)
	w.Uint64(st.pages)
	w.Uint64(st.assets)
	w.Uint64(st.apiCalls)
	w.Uint64(st.notFound)
	w.Uint64(st.robotsViol)
	w.Uint64(st.refererMiss)
	w.Uint64(st.refererEligible)
	st.products.SnapshotInto(w)
	w.Int(st.lastProduct)
	w.Uint64(st.seqRuns)
	w.Int(st.lastCategory)
	w.Int(st.lastPage)
	w.Uint64(st.pageRuns)
	w.Time(time.Unix(st.lastSec, int64(st.lastNsec)))
	st.interarrival.SnapshotInto(w)
	st.rate.SnapshotInto(w)
	w.Uint8(uint8(st.claims))
}

func restoreSession(r *statecodec.Reader, st *session) error {
	st.count = r.Uint64()
	st.pages = r.Uint64()
	st.assets = r.Uint64()
	st.apiCalls = r.Uint64()
	st.notFound = r.Uint64()
	st.robotsViol = r.Uint64()
	st.refererMiss = r.Uint64()
	st.refererEligible = r.Uint64()
	if err := st.products.RestoreFrom(r); err != nil {
		return err
	}
	st.lastProduct = r.Int()
	st.seqRuns = r.Uint64()
	st.lastCategory = r.Int()
	st.lastPage = r.Int()
	st.pageRuns = r.Uint64()
	last := r.Time()
	st.lastSec, st.lastNsec = last.Unix(), int32(last.Nanosecond())
	if err := st.interarrival.RestoreFrom(r); err != nil {
		return err
	}
	if err := st.rate.RestoreFrom(r); err != nil {
		return err
	}
	claims := r.Uint8()
	if r.Err() != nil {
		return r.Err()
	}
	if claims > uint8(uaparse.ClassTool) {
		return fmt.Errorf("%w: UA class %d", statecodec.ErrCorrupt, claims)
	}
	st.claims = uaparse.Class(claims)
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
	stores, err := arcaneStores(shards)
	if err != nil {
		return err
	}
	w.Tag(tagArcane)
	sessions.SnapshotMerged(w, stores)
	return w.Err()
}

// RestoreShards implements detector.ShardedSnapshotter. Sessions are
// keyed by (IP, User-Agent) but partitioned by IP alone — the same rule
// the sharded pipeline and httpguard route requests by — so every
// session of one client lands on that client's shard.
func (d *Detector) RestoreShards(r *statecodec.Reader, shards []detector.Detector, part func(ip uint32) int) error {
	stores, err := arcaneStores(shards)
	if err != nil {
		return err
	}
	if err := r.Expect(tagArcane); err != nil {
		return err
	}
	return sessions.RestorePartitioned(r, stores, func(k sessions.Key) int { return part(k.IP) })
}

// arcaneStores asserts a shard slice down to the session stores.
func arcaneStores(shards []detector.Detector) ([]*sessions.Store[session], error) {
	stores := make([]*sessions.Store[session], len(shards))
	for i, s := range shards {
		ad, ok := s.(*Detector)
		if !ok {
			return nil, fmt.Errorf("arcane: shard %d is %T, not *arcane.Detector", i, s)
		}
		stores[i] = ad.store
	}
	return stores, nil
}
