// Package ratelimit implements clock-injectable rate measurement and
// admission primitives: sliding-window counters and GCRA. The
// commercial-style detector uses them to judge per-client request rates.
// Each comes in two halves: the parameters (Window, Limit), one value per
// owner, and the state (SlidingWindow, GCRA), plain values with no pointers
// inside that a per-client record embeds, so the record stays pointer-free
// and carries no copy of what every client shares. Every method takes the
// parameters by pointer; the instants the state keeps are integer
// nanoseconds (internal/instant). All methods take explicit time.Time
// arguments — there is no hidden wall clock — so simulated traces replay
// deterministically.
package ratelimit

import (
	"fmt"
	"time"

	"divscrape/internal/instant"
)

// Window is a sliding window's shape: a trailing span split into 2 to 6
// sub-buckets. With k sub-buckets the count error is at most one
// sub-bucket's worth of events.
type Window struct {
	span  time.Duration
	slot  time.Duration
	slots int
}

// maxSlots is the bucket array's fixed length: the window lives inside its
// owner's record, and the one owner (sentinel, per client address) uses 6.
const maxSlots = 6

// NewWindow returns the shape of a window over span split into slots
// sub-buckets (2 to 6).
func NewWindow(span time.Duration, slots int) (Window, error) {
	if span <= 0 {
		return Window{}, fmt.Errorf("ratelimit: window must be positive, got %v", span)
	}
	if slots < 2 || slots > maxSlots {
		return Window{}, fmt.Errorf("ratelimit: need 2 to %d slots, got %d", maxSlots, slots)
	}
	return Window{span: span, slot: span / time.Duration(slots), slots: slots}, nil
}

// SlidingWindow counts events over a trailing Window using fixed
// sub-bucket rotation, giving an O(1) approximate count with bounded
// memory. Every call on one counter must pass the same Window.
type SlidingWindow struct {
	buckets [maxSlots]uint64 // the first Window.slots are in use
	start   int64            // start of the head slot; instant.Never until an event
	total   uint64
	head    uint8 // index of the bucket covering start
	seen    bool
}

// NewSlidingWindow returns a counter that has seen no event.
func NewSlidingWindow() SlidingWindow { return SlidingWindow{start: instant.Never} }

// Observe counts one event at time now and returns the windowed count
// including this event.
func (w *SlidingWindow) Observe(p *Window, now time.Time) uint64 {
	w.advance(p, now)
	w.buckets[w.head]++
	w.total++
	return w.total
}

// Count returns the approximate number of events in the trailing window as
// of now.
func (w *SlidingWindow) Count(p *Window, now time.Time) uint64 {
	w.advance(p, now)
	return w.total
}

// Rate returns the approximate events/second over the trailing window.
func (w *SlidingWindow) Rate(p *Window, now time.Time) float64 {
	return float64(w.Count(p, now)) / p.span.Seconds()
}

// advance rotates the buckets up to now. Slot boundaries are multiples of
// the slot since the zero time, not since the Unix epoch (the two differ
// for a slot that does not divide the 62 135 596 800 s between them), so
// the two places that anchor a window truncate the time.Time itself.
func (w *SlidingWindow) advance(p *Window, now time.Time) {
	if !w.seen {
		w.seen = true
		w.start = instant.Of(now.Truncate(p.slot))
		return
	}
	steps := int64(instant.Sub(instant.Of(now), w.start) / p.slot)
	if steps <= 0 {
		return
	}
	if steps >= int64(p.slots) {
		w.buckets = [maxSlots]uint64{}
		w.total = 0
		w.head = 0
		w.start = instant.Of(now.Truncate(p.slot))
		return
	}
	for i := int64(0); i < steps; i++ {
		w.head = uint8((int(w.head) + 1) % p.slots)
		w.total -= w.buckets[w.head]
		w.buckets[w.head] = 0
	}
	w.start += steps * int64(p.slot)
}

// Limit is a GCRA's parameters: the emission interval T = 1/rate and the
// burst tolerance tau.
type Limit struct {
	increment time.Duration
	tolerance time.Duration
}

// NewLimit returns the parameters admitting rate events/second with a
// burst of approximately burst events.
func NewLimit(rate float64, burst float64) (Limit, error) {
	if rate <= 0 {
		return Limit{}, fmt.Errorf("ratelimit: rate must be positive, got %g", rate)
	}
	if burst < 1 {
		return Limit{}, fmt.Errorf("ratelimit: burst must be at least 1, got %g", burst)
	}
	inc := time.Duration(float64(time.Second) / rate)
	return Limit{increment: inc, tolerance: time.Duration(float64(inc) * (burst - 1))}, nil
}

// GCRA implements the Generic Cell Rate Algorithm (virtual scheduling
// form): an event conforms if it does not arrive more than the burst
// tolerance ahead of its theoretical arrival time. Functionally equivalent
// to a token bucket but stores a single timestamp, making it the cheapest
// per-client limiter when tracking hundreds of thousands of clients. Every
// call on one limiter must pass the same Limit.
type GCRA struct {
	tat  int64 // theoretical arrival time; instant.Never until an event
	seen bool
}

// NewGCRA returns a limiter that has seen no event.
func NewGCRA() GCRA { return GCRA{tat: instant.Never} }

// Allow reports whether an event at time now conforms to l.
func (g *GCRA) Allow(l *Limit, now time.Time) bool {
	at := instant.Of(now)
	if !g.seen {
		g.seen = true
		g.tat = instant.Add(at, l.increment)
		return true
	}
	if at < instant.Add(g.tat, -l.tolerance) {
		return false
	}
	g.tat = instant.Add(max(g.tat, at), l.increment)
	return true
}
