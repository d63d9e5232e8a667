// Package faultinject is the chaos plane's injection registry: named
// fault points compiled into production code paths that cost one atomic
// pointer load when disarmed, and inject panics, errors, latency, torn
// writes or clock skew when a test arms them. The chaos suites arm a
// point, drive the system through the failure, and assert that the
// surrounding layer degrades the way its policy promises — quarantine
// and restore in httpguard, retry and fall back in checkpoint, back off
// and keep tailing in stream.
//
// # Cost model
//
// A Point holds an atomic.Pointer to its armed fault. Disarmed — the
// only state production traffic ever sees — Fire is a single atomic
// load and a nil check: no allocation, no branch the CPU cannot
// predict, nothing for the alloc-regression guards to notice. Arming is
// test-only and fully dynamic, so the chaos suite runs against the same
// binary the benchmarks measure; there is no build-tag variant whose
// behaviour could drift from the tested one.
//
// # Usage
//
// The instrumented package declares its points at init:
//
//	var fiWrite = faultinject.At("checkpoint.write")
//
// and consults them at the fault site: Fire for generic error/panic
// sites, Active for sites that need fault detail (partial-write length),
// Skew for clock sites. Tests arm by name:
//
//	faultinject.Enable("checkpoint.write", faultinject.Fault{
//		Err: syscall.ENOSPC, After: 1, Times: 2,
//	})
//	t.Cleanup(faultinject.Reset)
//
// Points are process-global, so chaos tests must not run in parallel
// with each other within a package; Reset disarms everything.
package faultinject

import (
	"sync"
	"sync/atomic"
	"time"
)

// Fault describes what an armed point injects. The zero value fires on
// every passage and injects nothing — combine the fields that apply.
type Fault struct {
	// Err is returned from Fire (and surfaced on Active's result).
	Err error
	// Panic, when non-nil, makes Fire panic with this value after any
	// configured Delay.
	Panic any
	// Delay is slept (through the hook installed with SetSleep, or
	// time.Sleep by default) before the other effects apply. Chaos
	// tests install a channel-handshake hook instead of sleeping, so
	// "a detector stalls mid-inspect" is deterministic.
	Delay time.Duration
	// Skew is the clock offset returned by Point.Skew, for fault sites
	// that perturb time instead of failing.
	Skew time.Duration
	// Partial is the byte count a torn-write site should persist
	// before failing; see checkpoint's write fault.
	Partial int
	// After skips the first After passages through the point before
	// the fault starts firing.
	After int
	// Times bounds how many passages fire; the point disarms itself
	// after the last one. Zero fires until explicitly disarmed.
	Times int
}

// armed pairs a fault with its passage counter, so re-arming a point
// restarts the After/Times accounting.
type armed struct {
	f    Fault
	hits atomic.Int64
}

// Point is one named injection site. Obtain with At; the zero value is
// a permanently disarmed point.
type Point struct {
	name  string
	state atomic.Pointer[armed]
}

// Name returns the point's registry name.
func (p *Point) Name() string { return p.name }

// take consumes one passage and returns the fault if this passage
// fires. Disarmed points return nil after one atomic load.
func (p *Point) take() *Fault {
	a := p.state.Load()
	if a == nil {
		return nil
	}
	n := int(a.hits.Add(1))
	if n <= a.f.After {
		return nil
	}
	if a.f.Times > 0 {
		if n > a.f.After+a.f.Times {
			p.state.CompareAndSwap(a, nil)
			return nil
		}
		if n == a.f.After+a.f.Times {
			p.state.CompareAndSwap(a, nil)
		}
	}
	return &a.f
}

// Fire consumes one passage: it sleeps the fault's Delay, panics with
// its Panic value, or returns its Err. A disarmed point returns nil at
// the cost of one atomic load, inlined into the caller.
func (p *Point) Fire() error {
	if p.state.Load() == nil {
		return nil
	}
	return p.fire()
}

func (p *Point) fire() error {
	f := p.take()
	if f == nil {
		return nil
	}
	if f.Delay > 0 {
		sleep(f.Delay)
	}
	if f.Panic != nil {
		panic(f.Panic)
	}
	return f.Err
}

// Active consumes one passage and returns the firing fault, or nil.
// For sites that need fault detail (Partial) beyond what Fire applies;
// the caller is responsible for honouring the fault's fields.
func (p *Point) Active() *Fault { return p.take() }

// Skew consumes one passage and returns the fault's clock offset, or 0.
func (p *Point) Skew() time.Duration {
	f := p.take()
	if f == nil {
		return 0
	}
	return f.Skew
}

// Enabled reports whether the point is currently armed (without
// consuming a passage).
func (p *Point) Enabled() bool { return p.state.Load() != nil }

var (
	mu     sync.Mutex
	points = map[string]*Point{}

	// sleepFn is the Delay implementation; nil selects time.Sleep.
	sleepFn atomic.Pointer[func(time.Duration)]
)

func sleep(d time.Duration) {
	if fn := sleepFn.Load(); fn != nil {
		(*fn)(d)
		return
	}
	time.Sleep(d)
}

// SetSleep installs the hook Delay faults sleep through; nil restores
// time.Sleep. Chaos tests install a channel handshake so stalls are
// deterministic, not timed.
func SetSleep(fn func(time.Duration)) {
	if fn == nil {
		sleepFn.Store(nil)
		return
	}
	sleepFn.Store(&fn)
}

// At returns the registry's point for name, creating it disarmed on
// first use. Instrumented packages call this once at init and keep the
// pointer; tests address the same point by name through Enable.
func At(name string) *Point {
	mu.Lock()
	defer mu.Unlock()
	p, ok := points[name]
	if !ok {
		p = &Point{name: name}
		points[name] = p
	}
	return p
}

// Enable arms the named point with f, replacing any previous fault and
// restarting its After/Times accounting.
func Enable(name string, f Fault) {
	enabled.Store(true)
	At(name).state.Store(&armed{f: f})
}

// enabled is set by Enable and cleared by Reset: see Armed.
var enabled atomic.Bool

// Armed reports whether any point may be armed: false until the first
// Enable, and again after Reset. A site that passes several points in a
// row loads it once and fires its points only when it is true — one
// atomic load for all of them in production, which never arms a point.
func Armed() bool { return enabled.Load() }

// Disable disarms the named point.
func Disable(name string) {
	At(name).state.Store(nil)
}

// Reset disarms every registered point and restores the default sleep,
// returning the process to the production (zero-cost) state. Chaos
// tests register it as a cleanup.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for _, p := range points {
		p.state.Store(nil)
	}
	enabled.Store(false)
	sleepFn.Store(nil)
}
