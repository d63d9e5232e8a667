package stream

import (
	"fmt"
	"sync/atomic"
	"time"

	"divscrape/internal/clockwork"
	"divscrape/internal/detector"
)

// Sweeper drives windowed TTL eviction across every registered stateful
// layer from one place: detector session stores, mitigation engines, the
// enricher's address table — anything implementing the
// detector.Evictable hook. One sweeper, one window, one cadence, so an
// operator reasons about a single retention knob instead of one per
// subsystem.
//
// The sweeper is clock-agnostic: Observe advances it on event time (the
// deterministic choice for replays and for follow mode, where entry
// timestamps are the stream's own clock), and Tick advances it from a
// clockwork.Source (the wall clock in live services, a simulated clock in
// tests). Both funnel into the same cadence logic, so a test driving a
// clockwork.Clock exercises exactly the code a production wall-clock
// ticker runs.
//
// Sweeping is single-threaded: call Observe/Tick/SweepAt from the one
// goroutine that owns the registered state (the pipeline sink, a guard's
// sweep slot). Stats is safe from any goroutine.
type Sweeper struct {
	window time.Duration
	every  time.Duration
	src    clockwork.Source
	last   time.Time
	hooks  []sweepHook

	sweeps  atomic.Uint64
	evicted atomic.Uint64
}

type sweepHook struct {
	name string
	ev   detector.Evictable
}

// NewSweeper builds a sweeper with the given retention window and sweep
// cadence (every <= 0 defaults to window/4, at least one second). src
// supplies Tick's clock; nil defaults to the system clock.
func NewSweeper(window, every time.Duration, src clockwork.Source) (*Sweeper, error) {
	if window <= 0 {
		return nil, fmt.Errorf("stream: sweep window must be positive, got %v", window)
	}
	if every <= 0 {
		every = window / 4
		if every < time.Second {
			every = time.Second
		}
	}
	if src == nil {
		src = clockwork.System()
	}
	return &Sweeper{window: window, every: every, src: src}, nil
}

// Register adds an eviction hook under a diagnostic name. Hooks run in
// registration order.
func (s *Sweeper) Register(name string, ev detector.Evictable) {
	s.hooks = append(s.hooks, sweepHook{name: name, ev: ev})
}

// Window returns the retention window.
func (s *Sweeper) Window() time.Duration { return s.window }

// Observe advances the sweeper to now (typically an entry's event time)
// and, if a full cadence interval has elapsed since the last sweep, runs
// one. It returns the number of entries evicted by this call (0 when no
// sweep was due). Non-monotonic observations are clamped: time never runs
// backwards, it just fails to advance.
func (s *Sweeper) Observe(now time.Time) int {
	if now.IsZero() {
		return 0
	}
	if s.last.IsZero() {
		s.last = now
		return 0
	}
	if now.Sub(s.last) < s.every {
		return 0
	}
	return s.SweepAt(now)
}

// Tick is Observe on the sweeper's clock source — the wall clock in
// production. Call it on whatever heartbeat the host has (a ticker, a
// poll loop) — the cadence check makes over-calling free.
func (s *Sweeper) Tick() int { return s.Observe(s.src.Now()) }

// SweepAt unconditionally sweeps all hooks with cutoff now − window and
// resets the cadence anchor.
func (s *Sweeper) SweepAt(now time.Time) int {
	if now.Before(s.last) {
		now = s.last
	}
	s.last = now
	cutoff := now.Add(-s.window)
	n := 0
	for _, h := range s.hooks {
		n += h.ev.EvictBefore(cutoff)
	}
	s.sweeps.Add(1)
	s.evicted.Add(uint64(n))
	return n
}

// Stats reports lifetime sweep and eviction totals.
func (s *Sweeper) Stats() (sweeps, evicted uint64) {
	return s.sweeps.Load(), s.evicted.Load()
}
