// Package ratelimit implements clock-injectable rate measurement and
// admission primitives: sliding-window counters and GCRA. The
// commercial-style detector uses them to judge per-client request rates.
// Both are plain values with no pointers inside, so a per-client record
// embeds them and stays pointer-free; the instants they keep are integer
// nanoseconds (internal/instant). All methods take explicit time.Time
// arguments — there is no hidden wall clock — so simulated traces replay
// deterministically.
package ratelimit

import (
	"fmt"
	"time"

	"divscrape/internal/instant"
)

// SlidingWindow counts events over a trailing window using fixed sub-bucket
// rotation, giving an O(1) approximate count with bounded memory. With k
// sub-buckets the count error is at most one sub-bucket's worth of events.
type SlidingWindow struct {
	window  time.Duration
	slot    time.Duration
	buckets [maxSlots]uint64 // the first slots are in use
	slots   int
	head    int   // index of the bucket covering slotStart
	start   int64 // start of the head slot; instant.Never until an event
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
	return SlidingWindow{window: window, slot: window / time.Duration(slots), slots: slots, start: instant.Never}, nil
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

// advance rotates the buckets up to now. Slot boundaries are multiples of
// the slot since the zero time, not since the Unix epoch (the two differ
// for a slot that does not divide the 62 135 596 800 s between them), so
// the two places that anchor a window truncate the time.Time itself.
func (w *SlidingWindow) advance(now time.Time) {
	if !w.seen {
		w.seen = true
		w.start = instant.Of(now.Truncate(w.slot))
		return
	}
	steps := int64(instant.Sub(instant.Of(now), w.start) / w.slot)
	if steps <= 0 {
		return
	}
	if steps >= int64(w.slots) {
		w.buckets = [maxSlots]uint64{}
		w.total = 0
		w.head = 0
		w.start = instant.Of(now.Truncate(w.slot))
		return
	}
	for i := int64(0); i < steps; i++ {
		w.head = (w.head + 1) % w.slots
		w.total -= w.buckets[w.head]
		w.buckets[w.head] = 0
	}
	w.start += steps * int64(w.slot)
}

// GCRA implements the Generic Cell Rate Algorithm (virtual scheduling
// form): an event conforms if it does not arrive more than the burst
// tolerance ahead of its theoretical arrival time. Functionally equivalent
// to a token bucket but stores a single timestamp, making it the cheapest
// per-client limiter when tracking hundreds of thousands of clients.
type GCRA struct {
	increment time.Duration // emission interval T = 1/rate
	tolerance time.Duration // burst tolerance tau
	tat       int64         // theoretical arrival time; instant.Never until an event
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
		tat:       instant.Never,
	}, nil
}

// Allow reports whether an event at time now conforms.
func (g *GCRA) Allow(now time.Time) bool {
	at := instant.Of(now)
	if !g.seen {
		g.seen = true
		g.tat = instant.Add(at, g.increment)
		return true
	}
	if at < instant.Add(g.tat, -g.tolerance) {
		return false
	}
	g.tat = instant.Add(max(g.tat, at), g.increment)
	return true
}
