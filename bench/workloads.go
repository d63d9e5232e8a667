package main

import (
	"fmt"
	"net/url"
	"runtime"
	"time"

	"divscrape/internal/statecodec"
	"divscrape/internal/trace"
)

// workloadDef is one benchmark workload: which traffic it generates and
// which topology of the program it drives with it.
type workloadDef struct {
	name    string
	traffic func(sc scale) traffic
	// replay is set for the three from-bytes workloads; guard-http has
	// none and replays requests over sockets.
	replay *replayDef
}

var pairDetectors = []string{"sentinel", "arcane"}
var allDetectors = []string{"sentinel", "arcane", "trajectory"}

// workloads lists every workload in BENCHMARK.json's order.
var workloads = []*workloadDef{
	{
		name:    "replay-paper",
		traffic: func(sc scale) traffic { return sc.paper },
		replay:  &replayDef{detectors: pairDetectors, source: sourceReader},
	},
	{
		name:    "relaxed-paper",
		traffic: func(sc scale) traffic { return sc.paper },
		replay:  &replayDef{detectors: pairDetectors, source: sourceParallel},
	},
	{
		name:    "follow-wide",
		traffic: func(sc scale) traffic { return sc.wide },
		replay:  &replayDef{detectors: allDetectors, source: sourceFollower, window: followWindow, mitigate: true},
	},
	{
		name:    "guard-http",
		traffic: func(sc scale) traffic { return sc.guard },
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// system is a freshly built instance of the program in a workload's
// topology, able to serialise its state and load it back.
type system interface {
	snapshot(w *statecodec.Writer) error
	restore(r *statecodec.Reader) error
}

// prepared is a workload after set-up: inputs generated, the reference
// answer computed, and the per-pass procedure bound to them.
type prepared struct {
	def *workloadDef
	in  *inputs
	ref *outcome
	// detectors is the workload's own detector list.
	detectors []string
	// urls holds guard-http's parsed request targets.
	urls map[string]*url.URL
}

// setup generates the workload's inputs from seed, computes the
// reference answer and builds the system once, so that construction work
// shows in set-up time.
func (d *workloadDef) setup(sc scale, seed uint64, dir string, traced bool) (*prepared, error) {
	p := &prepared{def: d, detectors: allDetectors}
	var err error
	if d.replay != nil {
		if p.in, err = generate(d.traffic(sc), seed, dir); err != nil {
			return nil, err
		}
		p.detectors = d.replay.detectors
		if p.ref, err = referenceFromLog(p.in.path, d.replay.detectors); err != nil {
			return nil, err
		}
		if p.ref.skipped != 0 || p.ref.agree.total != uint64(p.in.lines) {
			return nil, fmt.Errorf("reference read %d of %d lines (%d skipped)", p.ref.agree.total, p.in.lines, p.ref.skipped)
		}
		_, err = d.replay.build(nil)
		return p, err
	}
	// The guard is fed requests; only the traced run's byte-level layers
	// need the rendered log on disk.
	if !traced {
		dir = ""
	}
	if p.in, err = generate(d.traffic(sc), seed, dir); err != nil {
		return nil, err
	}
	if p.urls, err = parseURLs(p.in.events); err != nil {
		return nil, err
	}
	// The reference is the guard's own tally over one sequential
	// in-process pass of the same requests.
	sys, err := buildGuard(true, false)
	if err != nil {
		return nil, err
	}
	sys.serveInproc(p.in.events, p.urls, 1)
	p.ref = sys.outcome(0)
	if p.ref.actions.Total() != uint64(len(p.in.events)) {
		return nil, fmt.Errorf("reference pass judged %d of %d requests", p.ref.actions.Total(), len(p.in.events))
	}
	return p, nil
}

// pass builds a fresh system (untimed) and takes the whole input through
// it once, checking the answer. It returns the system still holding its
// state.
func (p *prepared) pass(tracer *trace.Tracer) (system, *outcome, passCost, error) {
	if r := p.def.replay; r != nil {
		sys, err := r.build(tracer)
		if err != nil {
			return nil, nil, passCost{}, err
		}
		var out *outcome
		cost, err := timePass(func() (err error) {
			out, err = sys.run(p.in.path)
			return err
		})
		if err != nil {
			return nil, nil, cost, err
		}
		return sys, out, cost, out.check(p.ref, p.def.name)
	}
	sys, err := buildGuard(true, false)
	if err != nil {
		return nil, nil, passCost{}, err
	}
	srv, err := startServer(sys.handler)
	if err != nil {
		return nil, nil, passCost{}, err
	}
	defer srv.stop()
	var failed, unavailable uint64
	cost, err := timePass(func() (err error) {
		failed, unavailable, err = closedLoop(srv.addr, sys.clock, p.in.events)
		return err
	})
	if err != nil {
		return nil, nil, cost, err
	}
	out := sys.outcome(failed)
	// Every 503 must be a challenge the ladder issued.
	if unavailable > out.actions.Challenged {
		out.failed += unavailable - out.actions.Challenged
	}
	if err := out.check(p.ref, p.def.name); err != nil {
		return nil, nil, cost, err
	}
	return sys, out, cost, checkActions(out.actions, p.ref.actions, p.in.lines, p.def.name)
}

// fresh builds an empty system of the workload's topology.
func (p *prepared) fresh() (system, error) {
	if r := p.def.replay; r != nil {
		return r.build(nil)
	}
	return buildGuard(true, false)
}

// e2eResult is one untraced run's measurements.
type e2eResult struct {
	lines     int
	passes    int
	attempted uint64
	// medianRate is the median pass's rate, printed beside the fast
	// twentieth the metric reports.
	medianRate float64
	metrics    map[string]float64
}

// minPasses is the least number of timed passes a run takes its
// statistics over, however short --seconds is.
const minPasses = 3

// heapPasses is how many held-state readings heap_bytes_per_req is the
// median of: which parse worker interned a string, and so which copies
// the relaxed pipeline's state keeps alive, differs from pass to pass.
const heapPasses = 3

// runE2E is the untraced run: set-up (repeated, median), one warm-up
// pass, timed passes for the given duration, then the held-state
// reading.
//
// The two timing metrics report the fast twentieth of the passes, not the
// median: on a shared host interference only ever slows a pass — by a
// quarter for eight seconds at a time, by a tenth for a minute — so the
// median pass follows the neighbours while the pass that one in twenty
// beats needs only a twentieth of the run to be quiet. With 18–160 passes
// a run it is the second to ninth best, so one lucky pass cannot set it.
func runE2E(d *workloadDef, sc scale, seed uint64, seconds float64, tmpRoot string) (*e2eResult, error) {
	dir, cleanup, err := tempDir(tmpRoot)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	var p *prepared
	var setups []float64
	for i := 0; i < sc.setups; i++ {
		p.drop()
		t0 := time.Now()
		if p, err = d.setup(sc, seed, dir, false); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", d.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	n := p.in.lines
	if d.replay != nil {
		// The replay reads the file; holding the event list would only
		// change how often the collector runs beside the pipeline.
		p.in.events = nil
	}

	if _, _, _, err := p.pass(nil); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", d.name, err)
	}
	var rate, cpu, allocs []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(rate) < minPasses || time.Now().Before(deadline) {
		_, _, cost, err := p.pass(nil)
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", d.name, len(rate)+1, err)
		}
		rate = append(rate, float64(n)/cost.wall.Seconds())
		cpu = append(cpu, float64(cost.cpu.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(cost.mallocs)/float64(n))
	}

	// Held state: a fresh system after exactly one pass, read heapPasses
	// times. Both heap readings of a pass must see the same harness
	// memory, so the inputs stay reachable until after the last.
	var heaps []float64
	for i := 0; i < heapPasses; i++ {
		var sys system
		grown, err := heapGrowth(func() (err error) {
			sys, _, _, err = p.pass(nil)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: heap pass: %w", d.name, err)
		}
		runtime.KeepAlive(sys)
		heaps = append(heaps, grown)
	}
	runtime.KeepAlive(p)
	return &e2eResult{
		lines:      n,
		passes:     len(rate),
		attempted:  uint64(n) * uint64(len(rate)),
		medianRate: median(rate),
		metrics: map[string]float64{
			"setup_s":            median(setups),
			"req_per_s":          fastTwentieth(rate, higher),
			"cpu_ns_per_req":     fastTwentieth(cpu, lower),
			"allocs_per_req":     median(allocs),
			"heap_bytes_per_req": median(heaps) / float64(n),
		},
	}, nil
}

// drop releases a prepared workload's files.
func (p *prepared) drop() {
	if p != nil {
		p.in.remove()
	}
}
