package ratelimit

import (
	"testing"
	"time"

	"divscrape/internal/statecodec"
)

var snapBase = time.Date(2018, 3, 11, 9, 0, 0, 0, time.UTC)

// TestSnapshotRoundTripEquivalence proves the behavioural contract: a
// restored limiter admits exactly the same future event sequence as the
// original.
func TestSnapshotRoundTripEquivalence(t *testing.T) {
	g1, _ := NewGCRA(2, 5)
	w1, _ := NewSlidingWindow(time.Minute, 6)
	now := snapBase
	for i := 0; i < 40; i++ {
		now = now.Add(time.Duration(100+i*37) * time.Millisecond)
		g1.Allow(now)
		w1.Observe(now)
	}

	w := statecodec.NewWriter()
	g1.SnapshotInto(w)
	w1.SnapshotInto(w)

	g2, _ := NewGCRA(2, 5)
	w2, _ := NewSlidingWindow(time.Minute, 6)
	r := statecodec.NewReader(w.Bytes())
	if err := g2.RestoreFrom(r); err != nil {
		t.Fatal(err)
	}
	if err := w2.RestoreFrom(r); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}

	for i := 0; i < 200; i++ {
		now = now.Add(time.Duration(80+i*13) * time.Millisecond)
		if g1.Allow(now) != g2.Allow(now) {
			t.Fatalf("GCRA diverged at step %d", i)
		}
		if w1.Observe(now) != w2.Observe(now) {
			t.Fatalf("SlidingWindow diverged at step %d", i)
		}
	}
}

func TestSlidingWindowRestoreRejectsSlotMismatch(t *testing.T) {
	a, _ := NewSlidingWindow(time.Minute, 6)
	a.Observe(snapBase)
	w := statecodec.NewWriter()
	a.SnapshotInto(w)

	b, _ := NewSlidingWindow(time.Minute, 4)
	if err := b.RestoreFrom(statecodec.NewReader(w.Bytes())); err == nil {
		t.Error("slot-count mismatch accepted")
	}
}

func TestRestoreRejectsTruncation(t *testing.T) {
	g, _ := NewGCRA(1, 2)
	g.Allow(snapBase)
	w := statecodec.NewWriter()
	g.SnapshotInto(w)
	for cut := 0; cut < w.Len(); cut++ {
		fresh, _ := NewGCRA(1, 2)
		if err := fresh.RestoreFrom(statecodec.NewReader(w.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
