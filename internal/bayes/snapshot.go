package bayes

import (
	"fmt"

	"divscrape/internal/detector"
	"divscrape/internal/sessions"
	"divscrape/internal/statecodec"
)

// Section tags.
const (
	tagModel uint16 = 0x4201
	tagBayes uint16 = 0x4202
)

var _ detector.ShardedSnapshotter = (*Detector)(nil)

// SnapshotInto implements statecodec.Snapshotter: the learned priors are
// the slowest state to rebuild (they need labelled traffic), so they are
// first-class snapshot citizens.
func (m *Model) SnapshotInto(w *statecodec.Writer) {
	w.Tag(tagModel)
	for class := 0; class < 2; class++ {
		w.Float64(m.classTotals[class])
		for f := 0; f < numFeatures; f++ {
			for b := 0; b < numBins; b++ {
				w.Float64(m.counts[class][f][b])
			}
		}
	}
}

// RestoreFrom implements statecodec.Snapshotter.
func (m *Model) RestoreFrom(r *statecodec.Reader) error {
	if err := r.Expect(tagModel); err != nil {
		return err
	}
	for class := 0; class < 2; class++ {
		m.classTotals[class] = r.Float64()
		for f := 0; f < numFeatures; f++ {
			for b := 0; b < numBins; b++ {
				m.counts[class][f][b] = r.Float64()
			}
		}
	}
	return r.Err()
}

// snapshotSession and restoreSession are the sessions value hooks.
func snapshotSession(w *statecodec.Writer, st *session) {
	w.Uint64(st.count)
	w.Uint64(st.pages)
	w.Uint64(st.assets)
	w.Uint64(st.apiCalls)
	w.Uint64(st.errors4xx)
	w.Uint64(st.refererMiss)
	w.Uint64(st.refererElig)
	st.products.SnapshotInto(w)
	w.Time(st.lastTime)
	w.Time(st.first)
	st.interarrival.SnapshotInto(w)
	w.Bool(st.declared)
}

func restoreSession(r *statecodec.Reader, st *session) error {
	st.count = r.Uint64()
	st.pages = r.Uint64()
	st.assets = r.Uint64()
	st.apiCalls = r.Uint64()
	st.errors4xx = r.Uint64()
	st.refererMiss = r.Uint64()
	st.refererElig = r.Uint64()
	if err := st.products.RestoreFrom(r); err != nil {
		return err
	}
	st.lastTime = r.Time()
	st.first = r.Time()
	if err := st.interarrival.RestoreFrom(r); err != nil {
		return err
	}
	st.declared = r.Bool()
	return r.Err()
}

// SnapshotInto implements detector.Snapshotter: the trained model plus
// every live session.
func (d *Detector) SnapshotInto(w *statecodec.Writer) {
	if err := d.SnapshotShardsInto(w, []detector.Detector{d}); err != nil {
		w.Fail(err)
	}
}

// RestoreFrom implements detector.Snapshotter.
func (d *Detector) RestoreFrom(r *statecodec.Reader) error {
	return d.RestoreShards(r, []detector.Detector{d}, func(uint32) int { return 0 })
}

// SnapshotShardsInto implements detector.ShardedSnapshotter. Shard
// instances hold replicas of one trained model (or literally share one),
// so the model is written once, from the first instance.
func (d *Detector) SnapshotShardsInto(w *statecodec.Writer, shards []detector.Detector) error {
	dets, err := bayesDetectors(shards)
	if err != nil {
		return err
	}
	w.Tag(tagBayes)
	dets[0].cfg.Model.SnapshotInto(w)
	stores := make([]*sessions.Store[session], len(dets))
	for i, bd := range dets {
		stores[i] = bd.store
	}
	sessions.SnapshotMerged(w, stores)
	return w.Err()
}

// RestoreShards implements detector.ShardedSnapshotter. The restored
// model is copied into every instance's model, so replicas stay in sync
// whether they share one *Model or carry their own.
func (d *Detector) RestoreShards(r *statecodec.Reader, shards []detector.Detector, part func(ip uint32) int) error {
	dets, err := bayesDetectors(shards)
	if err != nil {
		return err
	}
	if err := r.Expect(tagBayes); err != nil {
		return err
	}
	var m Model
	if err := m.RestoreFrom(r); err != nil {
		return err
	}
	if !m.Trained() {
		return fmt.Errorf("%w: restored bayes model is untrained", statecodec.ErrCorrupt)
	}
	for _, bd := range dets {
		*bd.cfg.Model = m
	}
	stores := make([]*sessions.Store[session], len(dets))
	for i, bd := range dets {
		stores[i] = bd.store
	}
	return sessions.RestorePartitioned(r, stores, func(k sessions.Key) int { return part(k.IP) })
}

// bayesDetectors asserts a shard slice down to concrete detectors.
func bayesDetectors(shards []detector.Detector) ([]*Detector, error) {
	dets := make([]*Detector, len(shards))
	for i, s := range shards {
		bd, ok := s.(*Detector)
		if !ok {
			return nil, fmt.Errorf("bayes: shard %d is %T, not *bayes.Detector", i, s)
		}
		dets[i] = bd
	}
	return dets, nil
}
