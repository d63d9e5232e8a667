package pipeline

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"divscrape/internal/arcane"
	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/sentinel"
	"divscrape/internal/workload"
)

// evictDecision is the full per-request observable: if eviction changed
// anything a detector can express, one of these fields changes.
type evictDecision struct {
	seq      uint64
	alerts   [2]bool
	scores   [2]float64
	reasons0 string
	reasons1 string
}

func collectDecisions(t *testing.T, p *Pipeline, src EntrySource, sink func(Decision)) []evictDecision {
	t.Helper()
	var out []evictDecision
	err := p.Run(context.Background(), src, func(d Decision) error {
		out = append(out, evictDecision{
			seq:      d.Req.Seq,
			alerts:   [2]bool{d.Verdicts[0].Alert, d.Verdicts[1].Alert},
			scores:   [2]float64{d.Verdicts[0].Score, d.Verdicts[1].Score},
			reasons0: strings.Join(d.Verdicts[0].Reasons.Strings(), ","),
			reasons1: strings.Join(d.Verdicts[1].Reasons.Strings(), ","),
		})
		if sink != nil {
			sink(d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// cleanRequests computes, for a window W, which requests come from
// clients the windowed eviction can never touch: a request is "clean"
// while every inter-request gap of both its session keys (the sentinel's
// per-IP key and the arcane's per-(IP, UA) key) has stayed under W. A
// sweep evicts a key only when some sweep time T satisfies
// lastSeen < T − W with T at or before the key's next request, which
// requires a gap strictly over W — so clean requests see identical
// detector state under every sweep schedule, in every mode. Once a key
// gaps past W its later requests are excluded permanently (whether a
// given schedule's sweep caught the session or not is schedule-dependent,
// which is exactly the freedom the contract grants). Authenticated
// requests never touch either store and are unconditionally clean.
func cleanRequests(events []workload.Event, window time.Duration) (clean []bool, dirty int) {
	type key struct{ ip, ua string }
	dirtyIP := map[string]bool{}
	dirtyKey := map[key]bool{}
	lastIP := map[string]time.Time{}
	lastKey := map[key]time.Time{}
	clean = make([]bool, len(events))
	for i := range events {
		e := &events[i].Entry
		if e.AuthUser != "" && e.AuthUser != "-" {
			clean[i] = true
			continue
		}
		if t0, ok := lastIP[e.RemoteAddr]; ok && e.Time.Sub(t0) >= window {
			dirtyIP[e.RemoteAddr] = true
		}
		lastIP[e.RemoteAddr] = e.Time
		k := key{e.RemoteAddr, e.UserAgent}
		if t0, ok := lastKey[k]; ok && e.Time.Sub(t0) >= window {
			dirtyKey[k] = true
		}
		lastKey[k] = e.Time
		clean[i] = !dirtyIP[e.RemoteAddr] && !dirtyKey[k]
		if !clean[i] {
			dirty++
		}
	}
	return clean, dirty
}

// Metamorphic eviction-equivalence: for any event stream, replaying with
// windowed eviction enabled produces verdicts identical to a no-eviction
// reference for every non-expired client, across Sequential and
// Sharded modes — and identical to a reference run where expired
// clients are manually removed between requests. The window is set well
// below the detectors' idle timeouts so the sweeps genuinely evict
// mid-stream state (with a window at or above the idle timeouts the
// property is total: see TestEvictionNeutralAtIdleWindow).
func TestEvictionEquivalenceMetamorphic(t *testing.T) {
	events := generate(t, 6)
	const (
		window = 10 * time.Minute
		every  = 2 * time.Minute
	)

	clean, dirty := cleanRequests(events, window)
	if dirty == 0 {
		t.Fatal("no request ever expires under the window; the test is vacuous")
	}

	reference := collectDecisions(t, newPipe(t, Sequential), sourceFrom(events), nil)

	compare := func(name string, got []evictDecision) {
		t.Helper()
		if len(got) != len(reference) {
			t.Fatalf("%s: decisions %d != %d", name, len(got), len(reference))
		}
		for i := range reference {
			if clean[i] && got[i] != reference[i] {
				t.Fatalf("%s: eviction changed non-expired decision %d:\n  evicted   %+v\n  reference %+v",
					name, i, got[i], reference[i])
			}
		}
	}

	// Manual-removal reference: a sequential pipeline with eviction off,
	// where the test itself removes expired clients from the sink (the
	// sink runs on the caller's goroutine between inspections, so the
	// detectors are quiescent). This is the ground truth the in-pipeline
	// sweeps are supposed to reproduce.
	sen, err := sentinel.New(sentinel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	arc, err := arcane.New(arcane.Config{})
	if err != nil {
		t.Fatal(err)
	}
	manualPipe, err := New(Config{
		Detectors:  []detector.Detector{sen, arc},
		Factories:  pairFactories(),
		Reputation: iprep.BuildFeed(),
		Mode:       Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lastSweep time.Time
	manualEvicted := 0
	manual := collectDecisions(t, manualPipe, sourceFrom(events), func(d Decision) {
		at := d.Req.Entry.Time
		if lastSweep.IsZero() {
			lastSweep = at
			return
		}
		if at.Sub(lastSweep) >= every {
			lastSweep = at
			manualEvicted += sen.EvictBefore(at.Add(-window))
			manualEvicted += arc.EvictBefore(at.Add(-window))
		}
	})
	if manualEvicted == 0 {
		t.Fatal("manual reference evicted nothing; the window never bit")
	}
	compare("manual removal", manual)

	for _, mode := range []Mode{Sequential, Sharded} {
		p, err := New(Config{
			Factories:   pairFactories(),
			Reputation:  iprep.BuildFeed(),
			Mode:        mode,
			Shards:      3,
			Buffer:      64,
			EvictWindow: window,
			EvictEvery:  every,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := collectDecisions(t, p, sourceFrom(events), nil)
		compare(fmt.Sprintf("mode %d", mode), got)
		sweeps, evicted := p.EvictionStats()
		if sweeps == 0 || evicted == 0 {
			t.Errorf("mode %d: sweeps=%d evicted=%d; eviction never ran, equivalence is vacuous",
				mode, sweeps, evicted)
		}
	}
	t.Logf("window=%v: %d/%d requests from expiring clients, manual run evicted %d sessions",
		window, dirty, len(events), manualEvicted)
}

// With the window at or above every detector idle timeout, eviction is
// completely verdict-neutral: the full decision stream is byte-identical
// in every mode (proactive sweeps can only drop what lazy idle expiry
// would have dropped before its next read).
func TestEvictionNeutralAtIdleWindow(t *testing.T) {
	events := generate(t, 6)
	reference := collectDecisions(t, newPipe(t, Sequential), sourceFrom(events), nil)
	for _, mode := range []Mode{Sequential, Sharded} {
		p, err := New(Config{
			Factories:   pairFactories(),
			Reputation:  iprep.BuildFeed(),
			Mode:        mode,
			Shards:      3,
			EvictWindow: time.Hour, // == sentinel idle, > arcane idle
			EvictEvery:  10 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := collectDecisions(t, p, sourceFrom(events), nil)
		if len(got) != len(reference) {
			t.Fatalf("mode %d: decisions %d != %d", mode, len(got), len(reference))
		}
		for i := range reference {
			if got[i] != reference[i] {
				t.Fatalf("mode %d: idle-window eviction changed decision %d:\n  evicted   %+v\n  reference %+v",
					mode, i, got[i], reference[i])
			}
		}
	}
}

// ResetDetectors starts an independent dataset, which may begin before the
// last one ended: the sweep cadence must restart with it. Replaying one
// stream twice has to sweep as often the second time as the first — in
// Sequential mode the anchor lives on the Pipeline, and one left behind by
// the first run would hold every sweep of the second off.
func TestEvictionCadenceRestartsAfterReset(t *testing.T) {
	events := generate(t, 6)
	for _, mode := range []Mode{Sequential, Sharded} {
		p, err := New(Config{
			Factories:   pairFactories(),
			Reputation:  iprep.BuildFeed(),
			Mode:        mode,
			Shards:      3,
			EvictWindow: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		collectDecisions(t, p, sourceFrom(events), nil)
		first, _ := p.EvictionStats()
		p.ResetDetectors()
		collectDecisions(t, p, sourceFrom(events), nil)
		total, _ := p.EvictionStats()
		if first == 0 || total-first != first {
			t.Errorf("mode %d: %d sweeps on the first replay, %d on the second", mode, first, total-first)
		}
	}
}

func TestEvictConfigValidation(t *testing.T) {
	if _, err := New(Config{Factories: pairFactories(), EvictWindow: -time.Second}); err == nil {
		t.Error("negative EvictWindow accepted")
	}
	p, err := New(Config{Factories: pairFactories(), EvictWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.EvictEvery != 15*time.Minute {
		t.Errorf("default EvictEvery = %v, want window/4", p.cfg.EvictEvery)
	}
}

// soakSource synthesises an unbounded-style stream: 1M requests from 100k
// client addresses that rotate through and never return (the
// address-churning botnet shape), at a fixed event-time pace. Entries are
// built in place, so the source itself adds nothing to the heap besides
// one address string per client.
type soakSource struct {
	n, total   int
	perClient  int
	start      time.Time
	step       time.Duration
	remoteAddr string
}

func (s *soakSource) next() (logfmt.Entry, error) {
	if s.n >= s.total {
		return logfmt.Entry{}, io.EOF
	}
	i := s.n
	s.n++
	if i%s.perClient == 0 {
		client := i / s.perClient
		// Addresses walk the residential 10.0.0.0/13 block.
		s.remoteAddr = fmt.Sprintf("10.%d.%d.%d", client>>16&0x7, client>>8&0xff, client&0xff)
	}
	ua := "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/63.0.3239.84 Safari/537.36"
	if i%3 == 0 {
		ua = "python-requests/2.18.4"
	}
	return logfmt.Entry{
		RemoteAddr: s.remoteAddr,
		Identity:   "-",
		AuthUser:   "-",
		Time:       s.start.Add(time.Duration(i) * s.step),
		Method:     "GET",
		Path:       fmt.Sprintf("/product/%d", i%4096),
		Proto:      "HTTP/1.1",
		Status:     200,
		Bytes:      1234,
		Referer:    "-",
		UserAgent:  ua,
	}, nil
}

// Soak: a 1M-event stream with 100k rotating client IPs must keep the
// live session-store node count under the window bound and the heap flat
// between sweeps — the bounded-memory claim behind `scrapedetect -follow`.
func TestSoakBoundedMemoryUnderEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-event soak")
	}
	const (
		total     = 1_000_000
		clients   = 100_000
		perClient = total / clients
		step      = 20 * time.Millisecond // 1M events ≈ 5.5h of stream time
		window    = time.Hour
	)
	sen, err := sentinel.New(sentinel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	arc, err := arcane.New(arcane.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Detectors:   []detector.Detector{sen, arc},
		Factories:   pairFactories(),
		Reputation:  iprep.BuildFeed(),
		Mode:        Sequential,
		EvictWindow: window,
		EvictEvery:  window / 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The window bound: clients active within window + sweep cadence of
	// stream time, each client alive for perClient*step.
	activeWindow := window + window/4
	bound := int(activeWindow/(time.Duration(perClient)*step)) + clients/100

	src := &soakSource{total: total, perClient: perClient,
		start: time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC), step: step}

	heapAt := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var baseline uint64
	n := 0
	err = p.Run(context.Background(), src.next, func(d Decision) error {
		n++
		if n%200_000 != 0 {
			return nil
		}
		// The sink runs on the caller's goroutine with the detectors
		// quiescent, so store sizes and the heap can be sampled mid-run.
		if got := sen.Sessions(); got > bound {
			t.Errorf("event %d: sentinel holds %d clients, window bound %d", n, got, bound)
		}
		if got := arc.Sessions(); got > bound {
			t.Errorf("event %d: arcane holds %d sessions, window bound %d", n, got, bound)
		}
		h := heapAt()
		if baseline == 0 {
			baseline = h
			return nil
		}
		// Flat between sweeps: later samples stay within 1.5× the first
		// steady-state sample plus fixed slack for sampling noise.
		if h > baseline+baseline/2+(16<<20) {
			t.Errorf("event %d: heap %d B vs baseline %d B; memory is growing", n, h, baseline)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("processed %d events, want %d", n, total)
	}
	sweeps, evicted := p.EvictionStats()
	if sweeps == 0 || evicted == 0 {
		t.Fatalf("sweeps=%d evicted=%d; the soak never exercised eviction", sweeps, evicted)
	}
	t.Logf("soak: %d events, %d sweeps, %d evictions, final stores sen=%d arc=%d (bound %d)",
		n, sweeps, evicted, sen.Sessions(), arc.Sessions(), bound)
}
