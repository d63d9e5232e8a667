// Package ratelimit implements clock-injectable rate measurement and
// admission primitives: sliding-window counters and GCRA. The
// commercial-style detector uses them to judge per-client request rates.
// Both are plain values with no pointers inside, so a per-client record
// embeds them and stays one allocation. All methods take explicit
// time.Time arguments — there is no hidden wall clock — so simulated traces
// replay deterministically.
package ratelimit

import (
	"fmt"
	"time"
)

// SlidingWindow counts events over a trailing window using fixed sub-bucket
// rotation, giving an O(1) approximate count with bounded memory. With k
// sub-buckets the count error is at most one sub-bucket's worth of events.
type SlidingWindow struct {
	window  time.Duration
	slot    time.Duration
	buckets [maxSlots]uint64 // the first slots are in use
	slots   int
	head    int       // index of the bucket covering slotStart
	start   time.Time // start of the head slot
	seen    bool
	total   uint64
}

// maxSlots is the bucket array's fixed length: the window lives inside its
// owner's record, and the one owner (sentinel, per client address) uses 6.
const maxSlots = 6

// NewSlidingWindow returns a counter over the given window split into slots
// sub-buckets (2 to 6).
func NewSlidingWindow(window time.Duration, slots int) (SlidingWindow, error) {
	if window <= 0 {
		return SlidingWindow{}, fmt.Errorf("ratelimit: window must be positive, got %v", window)
	}
	if slots < 2 || slots > maxSlots {
		return SlidingWindow{}, fmt.Errorf("ratelimit: need 2 to %d slots, got %d", maxSlots, slots)
	}
	return SlidingWindow{window: window, slot: window / time.Duration(slots), slots: slots}, nil
}

// Observe counts one event at time now and returns the windowed count
// including this event.
func (w *SlidingWindow) Observe(now time.Time) uint64 {
	w.advance(now)
	w.buckets[w.head]++
	w.total++
	return w.total
}

// Count returns the approximate number of events in the trailing window as
// of now.
func (w *SlidingWindow) Count(now time.Time) uint64 {
	w.advance(now)
	return w.total
}

// Rate returns the approximate events/second over the trailing window.
func (w *SlidingWindow) Rate(now time.Time) float64 {
	return float64(w.Count(now)) / w.window.Seconds()
}

func (w *SlidingWindow) advance(now time.Time) {
	if !w.seen {
		w.seen = true
		w.start = now.Truncate(w.slot)
		return
	}
	steps := int(now.Sub(w.start) / w.slot)
	if steps <= 0 {
		return
	}
	if steps >= w.slots {
		w.buckets = [maxSlots]uint64{}
		w.total = 0
		w.head = 0
		w.start = now.Truncate(w.slot)
		return
	}
	for i := 0; i < steps; i++ {
		w.head = (w.head + 1) % w.slots
		w.total -= w.buckets[w.head]
		w.buckets[w.head] = 0
	}
	w.start = w.start.Add(time.Duration(steps) * w.slot)
}

// GCRA implements the Generic Cell Rate Algorithm (virtual scheduling
// form): an event conforms if it does not arrive more than the burst
// tolerance ahead of its theoretical arrival time. Functionally equivalent
// to a token bucket but stores a single timestamp, making it the cheapest
// per-client limiter when tracking hundreds of thousands of clients.
type GCRA struct {
	increment time.Duration // emission interval T = 1/rate
	tolerance time.Duration // burst tolerance tau
	tat       time.Time     // theoretical arrival time
	seen      bool
}

// NewGCRA returns a limiter admitting rate events/second with a burst of
// approximately burst events.
func NewGCRA(rate float64, burst float64) (GCRA, error) {
	if rate <= 0 {
		return GCRA{}, fmt.Errorf("ratelimit: rate must be positive, got %g", rate)
	}
	if burst < 1 {
		return GCRA{}, fmt.Errorf("ratelimit: burst must be at least 1, got %g", burst)
	}
	inc := time.Duration(float64(time.Second) / rate)
	return GCRA{
		increment: inc,
		tolerance: time.Duration(float64(inc) * (burst - 1)),
	}, nil
}

// Allow reports whether an event at time now conforms.
func (g *GCRA) Allow(now time.Time) bool {
	if !g.seen {
		g.seen = true
		g.tat = now.Add(g.increment)
		return true
	}
	if now.Before(g.tat.Add(-g.tolerance)) {
		return false
	}
	if g.tat.Before(now) {
		g.tat = now
	}
	g.tat = g.tat.Add(g.increment)
	return true
}
