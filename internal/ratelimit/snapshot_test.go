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
	l, g1 := newGCRA(t, 2, 5)
	p, w1 := newWindow(t, time.Minute, 6)
	now := snapBase
	for i := 0; i < 40; i++ {
		now = now.Add(time.Duration(100+i*37) * time.Millisecond)
		g1.Allow(l, now)
		w1.Observe(p, now)
	}

	w := statecodec.NewWriter()
	g1.SnapshotInto(w)
	w1.SnapshotInto(w, p)

	g2, w2 := NewGCRA(), NewSlidingWindow()
	r := statecodec.NewReader(w.Bytes())
	if err := g2.RestoreFrom(r); err != nil {
		t.Fatal(err)
	}
	if err := w2.RestoreFrom(r, p); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}

	for i := 0; i < 200; i++ {
		now = now.Add(time.Duration(80+i*13) * time.Millisecond)
		if g1.Allow(l, now) != g2.Allow(l, now) {
			t.Fatalf("GCRA diverged at step %d", i)
		}
		if w1.Observe(p, now) != w2.Observe(p, now) {
			t.Fatalf("SlidingWindow diverged at step %d", i)
		}
	}
}

func TestSlidingWindowRestoreRejectsSlotMismatch(t *testing.T) {
	p6, a := newWindow(t, time.Minute, 6)
	a.Observe(p6, snapBase)
	w := statecodec.NewWriter()
	a.SnapshotInto(w, p6)

	p4, b := newWindow(t, time.Minute, 4)
	if err := b.RestoreFrom(statecodec.NewReader(w.Bytes()), p4); err == nil {
		t.Error("slot-count mismatch accepted")
	}
}

func TestRestoreRejectsTruncation(t *testing.T) {
	l, g := newGCRA(t, 1, 2)
	g.Allow(l, snapBase)
	w := statecodec.NewWriter()
	g.SnapshotInto(w)
	for cut := 0; cut < w.Len(); cut++ {
		fresh := NewGCRA()
		if err := fresh.RestoreFrom(statecodec.NewReader(w.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
