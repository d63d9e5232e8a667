package ratelimit

import (
	"fmt"

	"divscrape/internal/instant"
	"divscrape/internal/statecodec"
)

// Snapshot support: the limiters serialise only their dynamic state
// (timestamps, window counts); rates, bursts and window shapes
// are configuration and must match between the snapshotting and the
// restoring instance. SlidingWindow verifies the bucket count and rejects
// a mismatched snapshot rather than silently reinterpreting it.

// Section tags.
const (
	tagSlidingWindow uint16 = 0x5202
	tagGCRA          uint16 = 0x5203
)

// SnapshotInto implements statecodec.Snapshotter.
func (w *SlidingWindow) SnapshotInto(sw *statecodec.Writer) {
	sw.Tag(tagSlidingWindow)
	sw.Uint32(uint32(w.slots))
	for _, c := range w.buckets[:w.slots] {
		sw.Uint64(c)
	}
	sw.Int(w.head)
	sw.Time(instant.Time(w.start))
	sw.Bool(w.seen)
}

// RestoreFrom implements statecodec.Snapshotter. The window total is
// recomputed from the restored buckets so the rotation invariant holds
// even against a corrupt payload, and the bucket count must match the
// receiver's configuration.
func (w *SlidingWindow) RestoreFrom(r *statecodec.Reader) error {
	if err := r.Expect(tagSlidingWindow); err != nil {
		return err
	}
	n := r.Count(8)
	if r.Err() != nil {
		return r.Err()
	}
	if n != w.slots {
		return fmt.Errorf("%w: sliding window has %d slots, snapshot has %d",
			statecodec.ErrCorrupt, w.slots, n)
	}
	w.total = 0
	for i := 0; i < n; i++ {
		w.buckets[i] = r.Uint64()
		w.total += w.buckets[i]
	}
	w.head = r.Int()
	w.start = instant.Of(r.Time())
	w.seen = r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if w.head < 0 || w.head >= w.slots {
		return fmt.Errorf("%w: sliding window head %d out of range", statecodec.ErrCorrupt, w.head)
	}
	return nil
}

// SnapshotInto implements statecodec.Snapshotter.
func (g *GCRA) SnapshotInto(w *statecodec.Writer) {
	w.Tag(tagGCRA)
	w.Time(instant.Time(g.tat))
	w.Bool(g.seen)
}

// RestoreFrom implements statecodec.Snapshotter.
func (g *GCRA) RestoreFrom(r *statecodec.Reader) error {
	if err := r.Expect(tagGCRA); err != nil {
		return err
	}
	g.tat = instant.Of(r.Time())
	g.seen = r.Bool()
	return r.Err()
}
