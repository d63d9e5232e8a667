package ratelimit

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"divscrape/internal/instant"
)

var base = time.Date(2018, 3, 11, 0, 0, 0, 0, time.UTC)

// refBucket is the textbook token bucket, kept here as the reference the
// GCRA is checked against: tokens refill at rate per second up to burst,
// an event takes one.
type refBucket struct {
	rate, burst, tokens float64
	last                time.Time
	seen                bool
}

func (b *refBucket) Allow(now time.Time) bool {
	if !b.seen {
		b.seen, b.last, b.tokens = true, now, b.burst
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens, b.last = min(b.tokens+dt*b.rate, b.burst), now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// newWindow returns a fresh counter and the shape it counts over.
func newWindow(t testing.TB, span time.Duration, slots int) (*Window, SlidingWindow) {
	t.Helper()
	p, err := NewWindow(span, slots)
	if err != nil {
		t.Fatal(err)
	}
	return &p, NewSlidingWindow()
}

// newGCRA returns a fresh limiter and its parameters.
func newGCRA(t testing.TB, rate, burst float64) (*Limit, GCRA) {
	t.Helper()
	l, err := NewLimit(rate, burst)
	if err != nil {
		t.Fatal(err)
	}
	return &l, NewGCRA()
}

func TestSlidingWindowValidation(t *testing.T) {
	if _, err := NewWindow(0, 6); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewWindow(time.Minute, 1); err == nil {
		t.Error("single slot accepted")
	}
	// The buckets are a fixed array inside the value.
	if _, err := NewWindow(time.Minute, maxSlots); err != nil {
		t.Errorf("%d slots rejected: %v", maxSlots, err)
	}
	if _, err := NewWindow(time.Minute, maxSlots+1); err == nil {
		t.Errorf("%d slots accepted, the array holds %d", maxSlots+1, maxSlots)
	}
}

func TestSlidingWindowCounts(t *testing.T) {
	p, w := newWindow(t, time.Minute, 6)
	now := base
	for i := 0; i < 30; i++ {
		w.Observe(p, now)
		now = now.Add(time.Second)
	}
	if got := w.Count(p, now); got != 30 {
		t.Errorf("count after 30 events in 30s = %d, want 30", got)
	}
	// After the full window passes with no traffic, the count drains.
	if got := w.Count(p, now.Add(2*time.Minute)); got != 0 {
		t.Errorf("count after idle window = %d, want 0", got)
	}
}

func TestSlidingWindowExpiryGranularity(t *testing.T) {
	p, w := newWindow(t, time.Minute, 6)
	w.Observe(p, base)
	// 61 seconds later the event must be gone (granularity 10s slots).
	if got := w.Count(p, base.Add(61*time.Second)); got != 0 {
		t.Errorf("expired event still counted: %d", got)
	}
	// Within the same slot nothing expires.
	w.Observe(p, base.Add(2*time.Minute))
	if got := w.Count(p, base.Add(2*time.Minute+5*time.Second)); got != 1 {
		t.Errorf("fresh event lost: %d", got)
	}
}

func TestSlidingWindowRate(t *testing.T) {
	p, w := newWindow(t, time.Minute, 6)
	now := base
	for i := 0; i < 60; i++ {
		w.Observe(p, now)
		now = now.Add(time.Second)
	}
	got := w.Rate(p, now)
	if got < 0.8 || got > 1.2 {
		t.Errorf("1/s stream measured as %g/s", got)
	}
}

// A window is a plain value: a copy is a second, independent counter, which
// is what lets sentinel start every client from one template record.
func TestSlidingWindowCopyIsIndependent(t *testing.T) {
	p, a := newWindow(t, time.Minute, 6)
	a.Observe(p, base)
	b := a
	for i := 1; i <= 5; i++ {
		b.Observe(p, base.Add(time.Duration(i)*11*time.Second))
	}
	if got := a.Count(p, base); got != 1 {
		t.Errorf("original counts %d after its copy observed 5 more, want 1", got)
	}
	if got := b.Count(p, base.Add(55*time.Second)); got != 6 {
		t.Errorf("copy counts %d, want 6", got)
	}
}

func TestGCRAValidation(t *testing.T) {
	if _, err := NewLimit(0, 5); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewLimit(1, 0.5); err == nil {
		t.Error("burst < 1 accepted")
	}
}

func TestGCRABurstAndSustained(t *testing.T) {
	l, g := newGCRA(t, 1, 5)
	now := base
	admitted := 0
	for i := 0; i < 10; i++ {
		if g.Allow(l, now) {
			admitted++
		}
	}
	if admitted != 5 {
		t.Errorf("instant burst admitted %d, want 5", admitted)
	}
	// At exactly the sustained rate every event conforms.
	for i := 0; i < 20; i++ {
		now = now.Add(time.Second)
		if !g.Allow(l, now) {
			t.Fatalf("on-rate event %d rejected", i)
		}
	}
	// Double rate gets rejected about half the time.
	rejected := 0
	for i := 0; i < 100; i++ {
		now = now.Add(500 * time.Millisecond)
		if !g.Allow(l, now) {
			rejected++
		}
	}
	if rejected < 40 || rejected > 60 {
		t.Errorf("2x-rate stream rejected %d of 100, want about 50", rejected)
	}
}

// GCRA and a token bucket implement the same conformance law; over a
// steady stream their admission counts agree within one burst.
func TestGCRATokenBucketAgreementProperty(t *testing.T) {
	f := func(gapsMs []uint16) bool {
		l, g := newGCRA(t, 2, 8)
		b := refBucket{rate: 2, burst: 8}
		now := base
		ga, ba := 0, 0
		for _, gap := range gapsMs {
			now = now.Add(time.Duration(gap%3000) * time.Millisecond)
			if g.Allow(l, now) {
				ga++
			}
			if b.Allow(now) {
				ba++
			}
		}
		diff := ga - ba
		if diff < 0 {
			diff = -diff
		}
		return diff <= 9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGCRA(b *testing.B) {
	l, g := newGCRA(b, 1.5, 40)
	now := base
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = now.Add(100 * time.Millisecond)
		g.Allow(l, now)
	}
}

func BenchmarkSlidingWindow(b *testing.B) {
	p, w := newWindow(b, time.Minute, 6)
	now := base
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = now.Add(50 * time.Millisecond)
		w.Observe(p, now)
	}
}

// refWindow is the sliding window on time.Time, as it was before the
// window kept its slot start as integer nanoseconds: the reference for
// where slot boundaries fall.
type refWindow struct {
	slot    time.Duration
	buckets []uint64
	head    int
	start   time.Time
	seen    bool
	total   uint64
}

func (w *refWindow) Observe(now time.Time) uint64 {
	switch steps := int(now.Sub(w.start) / w.slot); {
	case !w.seen, steps >= len(w.buckets):
		clear(w.buckets)
		w.seen, w.total, w.head, w.start = true, 0, 0, now.Truncate(w.slot)
	case steps > 0:
		for i := 0; i < steps; i++ {
			w.head = (w.head + 1) % len(w.buckets)
			w.total -= w.buckets[w.head]
			w.buckets[w.head] = 0
		}
		w.start = w.start.Add(time.Duration(steps) * w.slot)
	}
	w.buckets[w.head]++
	w.total++
	return w.total
}

// Slot boundaries are multiples of the slot since the zero time.Time —
// what Truncate rounds to — not since the Unix epoch. For the 10 s slot in
// use the two agree; a 7 s slot tells them apart (the epochs are
// 62 135 596 800 s apart, 4 more than a multiple of 7), so it pins the
// anchor: counts and slot starts must match the time.Time reference.
func TestSlidingWindowSlotsAnchorAtTheZeroTime(t *testing.T) {
	p, w := newWindow(t, 42*time.Second, 6)
	ref := &refWindow{slot: 7 * time.Second, buckets: make([]uint64, 6)}
	rng := rand.New(rand.NewPCG(7, 42))
	now := base
	for i := 0; i < 5000; i++ {
		switch rng.IntN(10) {
		case 0: // a gap longer than the window: the window re-anchors
			now = now.Add(42*time.Second + time.Duration(rng.Int64N(int64(time.Minute))))
		default:
			now = now.Add(time.Duration(rng.Int64N(int64(5 * time.Second))))
		}
		if got, want := w.Observe(p, now), ref.Observe(now); got != want {
			t.Fatalf("event %d at %v: count %d, reference %d", i, now, got, want)
		}
		if got := instant.Time(w.start); !got.Equal(ref.start) {
			t.Fatalf("event %d at %v: head slot starts %v, reference %v", i, now, got, ref.start)
		}
	}
	if epoch := time.Unix(0, 0); epoch.Truncate(7 * time.Second).Equal(epoch) {
		t.Fatal("the Unix epoch is a 7 s boundary: this slot no longer tells the two anchors apart")
	}
}
