package ratelimit

import (
	"fmt"

	"divscrape/internal/instant"
	"divscrape/internal/statecodec"
)

// Snapshot support: the limiters serialise only their state (timestamps,
// window counts); rates, bursts and window shapes are parameters and must
// match between the snapshotting and the restoring instance. SlidingWindow
// writes its Window's bucket count and rejects a snapshot whose count
// differs from the restoring Window's rather than silently reinterpreting
// it.

// Section tags.
const (
	tagSlidingWindow uint16 = 0x5202
	tagGCRA          uint16 = 0x5203
)

// SnapshotInto writes the counter, shaped by p.
func (w *SlidingWindow) SnapshotInto(sw *statecodec.Writer, p *Window) {
	sw.Tag(tagSlidingWindow)
	sw.Uint32(uint32(p.slots))
	for _, c := range w.buckets[:p.slots] {
		sw.Uint64(c)
	}
	sw.Int(int(w.head))
	sw.Time(instant.Time(w.start))
	sw.Bool(w.seen)
}

// RestoreFrom reads a counter SnapshotInto wrote. The window total is
// recomputed from the restored buckets so the rotation invariant holds
// even against a corrupt payload, and the bucket count must be p's.
func (w *SlidingWindow) RestoreFrom(r *statecodec.Reader, p *Window) error {
	if err := r.Expect(tagSlidingWindow); err != nil {
		return err
	}
	n := r.Count(8)
	if r.Err() != nil {
		return r.Err()
	}
	if n != p.slots {
		return fmt.Errorf("%w: sliding window has %d slots, snapshot has %d",
			statecodec.ErrCorrupt, p.slots, n)
	}
	w.total = 0
	for i := 0; i < n; i++ {
		w.buckets[i] = r.Uint64()
		w.total += w.buckets[i]
	}
	head := r.Int()
	w.start = instant.Of(r.Time())
	w.seen = r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if head < 0 || head >= p.slots {
		return fmt.Errorf("%w: sliding window head %d out of range", statecodec.ErrCorrupt, head)
	}
	w.head = uint8(head)
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
