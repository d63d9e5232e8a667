package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"divscrape/httpguard"
	"divscrape/internal/checkpoint"
	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
	"divscrape/internal/pipeline"
	"divscrape/internal/sitemodel"
	"divscrape/internal/spsc"
	"divscrape/internal/statecodec"
	"divscrape/internal/stream"
	"divscrape/internal/trace"
	"divscrape/internal/uaparse"
	"divscrape/internal/workload"
)

// The traced run measures every layer on the workload's own traffic,
// whether or not the workload's end-to-end topology goes through it, so
// the layer table has the same rows on every workload. pathLayers says which
// rows a workload's topology does go through; only those are summed
// against its end-to-end figure.

// tracedRun is one workload's per-layer run.
type tracedRun struct {
	p      *prepared
	sc     scale
	log    *spanLog
	budget time.Duration
	dir    string
	m      map[string]float64
	// guardClients is the guard's ladder population, read with its state.
	guardClients int
}

// runTraced is the per-layer run of one workload. The spans are written
// to spansPath when the run ends.
func runTraced(d *workloadDef, sc scale, seed uint64, seconds float64, tmpRoot, spansPath string) (map[string]float64, error) {
	dir, cleanup, err := tempDir(tmpRoot)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	p, err := d.setup(sc, seed, dir, true)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", d.name, err)
	}
	t := &tracedRun{
		p: p, sc: sc, dir: dir,
		log:    newSpanLog(),
		budget: time.Duration(seconds * float64(time.Second)),
		m:      make(map[string]float64),
	}
	if err := t.run(); err != nil {
		return nil, fmt.Errorf("%s: traced: %w", d.name, err)
	}
	if err := t.log.writeTo(spansPath); err != nil {
		return nil, err
	}
	return t.m, nil
}

// sink values keep the compiler from discarding measured calls.
var (
	sinkUA   uaparse.Info
	sinkCat  iprep.Category
	sinkPath sitemodel.PathInfo
	sinkBool bool
)

// repeat runs fn — one whole measurement, returning its reading — until
// its share of the run's budget is spent, at least once, under a root
// span, and returns the median reading.
func (t *tracedRun) repeat(name string, share float64, fn func() (float64, error)) (float64, error) {
	deadline := time.Now().Add(time.Duration(share * float64(t.budget)))
	var vs []float64
	for len(vs) == 0 || time.Now().Before(deadline) {
		id := t.log.begin(name, -1)
		v, err := fn()
		t.log.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		vs = append(vs, v)
	}
	return median(vs), nil
}

// perLine times fn, which handles every line of the input once, and
// returns nanoseconds per line.
func (t *tracedRun) perLine(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return float64(time.Since(t0).Nanoseconds()) / float64(t.p.in.lines), err
}

// pathLayers lists the layer rows the workload's own topology executes,
// by metric name.
func (d *workloadDef) pathLayers() []string {
	r := d.replay
	if r == nil {
		return []string{"detector.enrich_ns", "sentinel.inspect_ns", "arcane.inspect_ns", "trajectory.inspect_ns",
			"ensemble.decide_ns", "mitigate.apply_ns"}
	}
	layers := []string{"detector.enrich_ns", "sentinel.inspect_ns", "arcane.inspect_ns", "sink.record_ns"}
	switch r.source {
	case sourceReader:
		layers = append(layers, "logfmt.reader_ns")
	case sourceParallel:
		layers = append(layers, "logfmt.parallel_reader_ns")
	case sourceFollower:
		layers = append(layers, "stream.follower_ns")
	}
	if len(r.detectors) > 2 {
		layers = append(layers, "trajectory.inspect_ns")
	}
	if r.mitigate {
		layers = append(layers, "ensemble.decide_ns", "mitigate.apply_ns")
	}
	if r.window > 0 {
		layers = append(layers, "pipeline.evict_ns")
	}
	return layers
}

// stagedLayers are the spans of one staged slab, in execution order,
// with the metric each feeds.
var stagedLayers = []struct{ span, metric string }{
	{"logfmt.reader", "logfmt.reader_ns"},
	{"detector.enrich", "detector.enrich_ns"},
	{"sentinel.inspect", "sentinel.inspect_ns"},
	{"arcane.inspect", "arcane.inspect_ns"},
	{"trajectory.inspect", "trajectory.inspect_ns"},
	{"ensemble.decide", "ensemble.decide_ns"},
	{"sink.record", "sink.record_ns"},
	{"mitigate.apply", "mitigate.apply_ns"},
	{"pipeline.evict", "pipeline.evict_ns"},
}

// staged is what one staged pass produced.
type staged struct {
	// ns is each layer's self time per line, by metric name.
	ns map[string]float64
	// out holds the workload's own detectors' agreement table and the
	// ladder's tally.
	out *outcome
	// alerts counts alerts per detector, all three.
	alerts  []uint64
	clients int
}

// stagedPass takes the log through the layers one slab at a time: every
// line of the slab is read and parsed, then every line enriched, then
// inspected by each detector in turn, adjudicated, recorded and fed to
// the ladder, with a span around each stage. Detectors are mutually
// independent and each sees the lines in order, so staging leaves every
// verdict as the pipeline computes it.
func (t *tracedRun) stagedPass() (*staged, error) {
	dets, _, err := buildDetectors(allDetectors)
	if err != nil {
		return nil, err
	}
	nd, own := len(dets), len(t.p.detectors)
	window := followWindow
	if r := t.p.def.replay; r != nil {
		window = r.window
	}
	lad, err := newLadder(own, window)
	if err != nil {
		return nil, err
	}
	var sweeper *stream.Sweeper
	if window > 0 {
		if sweeper, err = stream.NewSweeper(window, 0, nil); err != nil {
			return nil, err
		}
		for _, d := range dets {
			if ev, ok := d.(detector.Evictable); ok {
				sweeper.Register(d.Name(), ev)
			}
		}
	}
	enr := detector.NewEnricher(iprep.BuildFeed())
	f, err := os.Open(t.p.in.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	lr := logfmt.NewReader(f, logfmt.ReaderConfig{Policy: logfmt.Skip})

	slab := t.sc.slab
	entries := make([]logfmt.Entry, slab)
	reqs := make([]detector.Request, slab)
	verdicts := make([]detector.Verdict, slab*nd) // line-major: line i's verdicts are [i*nd, i*nd+nd)
	confirmed := make([]bool, slab)
	votes := make([]int, slab)
	ownOf := func(i int) []detector.Verdict { return verdicts[i*nd : i*nd+own] }
	res := &staged{out: &outcome{agree: newAgreement(own)}, alerts: make([]uint64, nd)}

	l := t.log
	pass := l.begin("pass", -1)
	for eof := false; !eof; {
		sl := l.begin("slab", pass)
		s := l.begin("logfmt.reader", sl)
		k := 0
		for k < slab {
			if err := lr.NextInto(&entries[k]); err != nil {
				if !errors.Is(err, io.EOF) {
					return nil, err
				}
				eof = true
				break
			}
			k++
		}
		l.end(s)
		if k == 0 {
			l.end(sl)
			break
		}
		s = l.begin("detector.enrich", sl)
		for i := 0; i < k; i++ {
			enr.EnrichInto(&reqs[i], entries[i])
		}
		l.end(s)
		for d, det := range dets {
			s = l.begin(det.Name()+".inspect", sl)
			for i := 0; i < k; i++ {
				det.InspectInto(&reqs[i], &verdicts[i*nd+d])
			}
			l.end(s)
		}
		s = l.begin("ensemble.decide", sl)
		for i := 0; i < k; i++ {
			confirmed[i] = lad.quorum.Decide(ownOf(i)).Alert
		}
		l.end(s)
		s = l.begin("sink.record", sl)
		for i := 0; i < k; i++ {
			votes[i] = res.out.agree.add(ownOf(i))
		}
		l.end(s)
		s = l.begin("mitigate.apply", sl)
		for i := 0; i < k; i++ {
			lad.apply(&entries[i], ownOf(i), votes[i] > 0, confirmed[i])
		}
		l.end(s)
		if sweeper != nil {
			s = l.begin("pipeline.evict", sl)
			sweeper.Observe(entries[k-1].Time)
			l.end(s)
		}
		l.end(sl)
		for i := 0; i < k; i++ {
			for d := 0; d < nd; d++ {
				if verdicts[i*nd+d].Alert {
					res.alerts[d]++
				}
			}
		}
	}
	l.end(pass)
	res.out.skipped = uint64(lr.Skipped())
	res.out.actions = lad.engine.Counts()
	res.clients = lad.engine.Len()
	self := l.selfTimes(pass)
	res.ns = make(map[string]float64, len(stagedLayers))
	n := float64(t.p.in.lines)
	for _, sl := range stagedLayers {
		res.ns[sl.metric] = float64(self[sl.span]) / n
	}
	return res, nil
}

// entriesOf copies the entries out of the event list.
func (t *tracedRun) entriesOf() []logfmt.Entry {
	es := make([]logfmt.Entry, len(t.p.in.events))
	for i := range es {
		es[i] = t.p.in.events[i].Entry
	}
	return es
}

// sliceSource yields pre-parsed entries.
func sliceSource(es []logfmt.Entry) pipeline.EntrySource {
	i := 0
	return func() (logfmt.Entry, error) {
		if i >= len(es) {
			return logfmt.Entry{}, io.EOF
		}
		i++
		return es[i-1], nil
	}
}

// inmem times the workload's detectors over pre-parsed entries — the
// figure the earlier records called req/s. It returns wall and CPU
// nanoseconds per line and, for the relaxed topology, the busiest
// shard's share of the decisions.
func (t *tracedRun) inmem(es []logfmt.Entry, relaxed bool) (wallNs, cpuNs, maxShare float64, err error) {
	def := &replayDef{detectors: t.p.detectors}
	if relaxed {
		def.source = sourceParallel
	}
	sys, err := def.build(nil)
	if err != nil {
		return 0, 0, 0, err
	}
	counts := make([]uint64, sys.pipe.Shards())
	sinks := make([]pipeline.Sink, len(counts))
	for i := range sinks {
		c := &counts[i]
		sinks[i] = func(pipeline.Decision) error { *c++; return nil }
	}
	cost, err := timePass(func() error {
		if relaxed {
			return sys.pipe.RunRelaxed(context.Background(), sliceSource(es), sinks)
		}
		return sys.pipe.Run(context.Background(), sliceSource(es), sinks[0])
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var total, top uint64
	for _, c := range counts {
		total += c
		if c > top {
			top = c
		}
	}
	if total != uint64(len(es)) {
		return 0, 0, 0, fmt.Errorf("sank %d of %d decisions", total, len(es))
	}
	n := float64(len(es))
	return float64(cost.wall.Nanoseconds()) / n, float64(cost.cpu.Nanoseconds()) / n, float64(top) / float64(total), nil
}

// spscRoundtrip pushes and pops items through one ring between two
// goroutines and returns nanoseconds per item.
func spscRoundtrip(items int) float64 {
	ring := spsc.New[int](1024)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	t0 := time.Now()
	go func() {
		defer wg.Done()
		for {
			if _, ok := ring.Pop(done); !ok {
				return
			}
		}
	}()
	for i := 0; i < items; i++ {
		ring.Push(done, i)
	}
	ring.Close()
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / float64(items)
}

// run executes the whole traced run and fills t.m.
func (t *tracedRun) run() error {
	p, m := t.p, t.m
	n := float64(p.in.lines)
	st := p.in.stats()
	m["input.lines"] = n
	m["input.bytes_per_line"] = st.bytesPerLine
	m["input.distinct_clients"] = float64(st.distinctClients)
	m["input.distinct_uas"] = float64(st.distinctUAs)
	m["input.top10_client_share"] = st.top10Share

	// The workload's own topology, untraced, in this process: the figure
	// the layer sum is reconciled against, and the tracing plane's base.
	if _, _, _, err := p.pass(nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	e2e, err := t.repeat("e2e", 0.10, func() (float64, error) {
		_, _, cost, err := p.pass(nil)
		return float64(cost.wall.Nanoseconds()) / n, err
	})
	if err != nil {
		return err
	}
	m["e2e.ns_per_req"] = e2e
	m["e2e.mb_per_s"] = st.bytesPerLine * 1e3 / e2e

	// Held state and its serialisation: a fresh system after exactly
	// one pass.
	var held system
	var e2eOut *outcome
	heap, err := heapGrowth(func() (err error) {
		held, e2eOut, _, err = p.pass(nil)
		return err
	})
	if err != nil {
		return err
	}
	runtime.KeepAlive(held)
	runtime.KeepAlive(p)
	m["state.heap_mb"] = heap / (1 << 20)
	m["state.bytes_per_client"] = heap / float64(st.distinctClients)
	if err := t.stateLayers(held, st.distinctClients); err != nil {
		return err
	}
	held = nil

	// The tracing plane's own cost: the same topology with the tracer
	// armed.
	armed, err := t.repeat("e2e.traced", 0.08, func() (float64, error) {
		if p.def.replay == nil {
			sys, err := buildGuard(true, true)
			if err != nil {
				return 0, err
			}
			return t.perLine(func() error { sys.serveInproc(p.in.events, p.urls, 1); return nil })
		}
		tr := trace.New(trace.Config{Detectors: p.detectors, Relaxed: p.def.replay.relaxed(), Shards: shardsOf(p.def.replay)})
		_, _, cost, err := p.pass(tr)
		return float64(cost.wall.Nanoseconds()) / n, err
	})
	if err != nil {
		return err
	}
	// For guard-http the base is the in-process serve measured below.
	tracerBase := e2e

	// Staged passes.
	var last *staged
	layerNs := make(map[string][]float64)
	if _, err := t.repeat("staged", 0.18, func() (float64, error) {
		s, err := t.stagedPass()
		if err != nil {
			return 0, err
		}
		last = s
		for k, v := range s.ns {
			layerNs[k] = append(layerNs[k], v)
		}
		return 0, nil
	}); err != nil {
		return err
	}
	for k, vs := range layerNs {
		m[k] = median(vs)
	}
	if p.def.replay != nil {
		if err := last.out.check(p.ref, "staged pass"); err != nil {
			return err
		}
		if p.def.replay.mitigate && last.out.actions != e2eOut.actions {
			return fmt.Errorf("staged pass: ladder tally %+v differs from the pipeline's %+v", last.out.actions, e2eOut.actions)
		}
	}
	for d, name := range allDetectors {
		m[name+".alert_share"] = float64(last.alerts[d]) / n
	}
	actions, clients := last.out.actions, last.clients

	// Byte-level layers.
	data, err := os.ReadFile(p.in.path)
	if err != nil {
		return err
	}
	if m["logfmt.parse_ns"], err = t.repeat("logfmt.parse", 0.03, func() (float64, error) {
		in := logfmt.NewInterner(1 << 16)
		var e logfmt.Entry
		return t.perLine(func() error {
			for rest := data; len(rest) > 0; {
				nl := bytes.IndexByte(rest, '\n')
				if err := logfmt.ParseCombinedBytes(rest[:nl], &e, in); err != nil {
					return err
				}
				rest = rest[nl+1:]
			}
			return nil
		})
	}); err != nil {
		return err
	}
	data = nil
	m["logfmt.read_ns"] = m["logfmt.reader_ns"] - m["logfmt.parse_ns"]
	if m["logfmt.parallel_reader_ns"], err = t.repeat("logfmt.parallel_reader", 0.03, func() (float64, error) {
		f, err := os.Open(p.in.path)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		plr := logfmt.NewParallelReader(f, logfmt.ParallelConfig{Policy: logfmt.Skip, Workers: relaxedFanout})
		defer plr.Close()
		var e logfmt.Entry
		return t.perLine(func() error { return drain(func() error { return plr.NextInto(&e) }, p.in.lines) })
	}); err != nil {
		return err
	}
	var followerAllocs float64
	if m["stream.follower_ns"], err = t.repeat("stream.follower", 0.03, func() (float64, error) {
		fol, err := stream.NewFollower(stream.FollowerConfig{Path: p.in.path})
		if err != nil {
			return 0, err
		}
		defer fol.Close()
		fol.Stop()
		var e logfmt.Entry
		m0 := mallocsNow()
		ns, err := t.perLine(func() error { return drain(func() error { return fol.NextInto(&e) }, p.in.lines) })
		followerAllocs = float64(mallocsNow()-m0) / n
		return ns, err
	}); err != nil {
		return err
	}
	m["stream.follower_allocs"] = followerAllocs

	// The enricher's parts, uncached, on the workload's own values.
	events := p.in.events
	rep := iprep.BuildFeed()
	if m["uaparse.parse_ns"], err = t.repeat("uaparse.parse", 0.02, func() (float64, error) {
		return t.perLine(func() error {
			for i := range events {
				sinkUA = uaparse.Parse(events[i].Entry.UserAgent)
			}
			return nil
		})
	}); err != nil {
		return err
	}
	if m["iprep.lookup_ns"], err = t.repeat("iprep.lookup", 0.02, func() (float64, error) {
		return t.perLine(func() error {
			for i := range events {
				ip, err := iprep.ParseIPv4(events[i].Entry.RemoteAddr)
				if err != nil {
					return err
				}
				sinkCat, sinkBool = rep.Lookup(ip)
			}
			return nil
		})
	}); err != nil {
		return err
	}
	if m["sitemodel.classify_ns"], err = t.repeat("sitemodel.classify", 0.02, func() (float64, error) {
		return t.perLine(func() error {
			for i := range events {
				sinkPath = sitemodel.ClassifyPath(events[i].Entry.Path)
			}
			return nil
		})
	}); err != nil {
		return err
	}

	// Detection over pre-parsed entries, sequential and relaxed, and the
	// ring between them.
	es := t.entriesOf()
	var seqCPU, relCPU, maxShare float64
	if m["pipeline.seq_inmem_ns"], err = t.repeat("pipeline.seq_inmem", 0.05, func() (float64, error) {
		wall, cpu, _, err := t.inmem(es, false)
		seqCPU = cpu
		return wall, err
	}); err != nil {
		return err
	}
	if m["pipeline.relaxed_inmem_ns"], err = t.repeat("pipeline.relaxed_inmem", 0.05, func() (float64, error) {
		wall, cpu, share, err := t.inmem(es, true)
		relCPU, maxShare = cpu, share
		return wall, err
	}); err != nil {
		return err
	}
	es = nil
	m["shard.max_share"] = maxShare
	m["relaxed.speedup"] = m["pipeline.seq_inmem_ns"] / m["pipeline.relaxed_inmem_ns"]
	m["relaxed.cpu_ratio"] = relCPU / seqCPU
	if m["spsc.roundtrip_ns"], err = t.repeat("spsc.roundtrip", 0.02, func() (float64, error) {
		return spscRoundtrip(p.in.lines), nil
	}); err != nil {
		return err
	}

	// The guard, in process and over sockets.
	guardActions, err := t.guardLayers()
	if err != nil {
		return err
	}
	if p.def.replay == nil {
		actions, clients = guardActions, t.guardClients
		tracerBase = m["httpguard.serve_ns"]
	}
	m["tracer.overhead_pct"] = (armed - tracerBase) / tracerBase * 100
	m["mitigate.clients"] = float64(clients)
	total := float64(actions.Total())
	m["mitigate.action_share.allow"] = float64(actions.Allowed) / total
	m["mitigate.action_share.tarpit"] = float64(actions.Tarpitted) / total
	m["mitigate.action_share.challenge"] = float64(actions.Challenged) / total
	m["mitigate.action_share.block"] = float64(actions.Blocked) / total

	// Reconciliation: the layers on this workload's path against its
	// end-to-end figure. The residual is hand-off, loop and cache effects
	// the staging hides — or, over sockets, everything outside the
	// decision.
	var sum float64
	for _, name := range p.def.pathLayers() {
		sum += m[name]
	}
	m["layers.sum_ns"] = sum
	m["layers.residual_ns"] = e2e - sum
	return nil
}

// shardsOf is the shard count a tracer must be told for def's topology.
func shardsOf(def *replayDef) int {
	if def.relaxed() {
		return relaxedFanout
	}
	return 0
}

// drain pulls from next until io.EOF and checks the count.
func drain(next func() error, want int) error {
	got := 0
	for {
		if err := next(); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		got++
	}
	if got != want {
		return fmt.Errorf("read %d of %d lines", got, want)
	}
	return nil
}

// stateLayers reads the held state of sys — a system that has seen the
// input exactly once — and times its serialisation in memory and through
// the crash-safe saver.
func (t *tracedRun) stateLayers(sys system, distinctClients int) error {
	m := t.m
	switch s := sys.(type) {
	case *replaySystem:
		sweeps, evicted := s.pipe.EvictionStats()
		if s.ladder != nil && s.ladder.sweeper != nil {
			s2, e2 := s.ladder.sweeper.Stats()
			sweeps, evicted = sweeps+s2, evicted+e2
		}
		m["pipeline.evict_sweeps"], m["pipeline.evicted"] = float64(sweeps), float64(evicted)
	case *guardSystem:
		state := s.guard.State()
		m["pipeline.evict_sweeps"], m["pipeline.evicted"] = float64(state.Sweeps), float64(state.Evicted)
		clients := 0
		for _, sh := range state.PerShard {
			clients += sh.EngineClients
		}
		t.guardClients = clients
	}
	m["state.clients"] = float64(distinctClients)

	w := statecodec.NewWriter()
	saver, err := checkpoint.NewSaver(checkpoint.Config{Path: filepath.Join(t.dir, "state.ckpt"), Retain: 1})
	if err != nil {
		return err
	}
	var enc, dec, save, load []float64
	ms := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
	_, err = t.repeat("checkpoint", 0.05, func() (float64, error) {
		w.Reset()
		t0 := time.Now()
		if err := sys.snapshot(w); err != nil {
			return 0, err
		}
		enc = append(enc, ms(t0))
		into, err := t.p.fresh()
		if err != nil {
			return 0, err
		}
		t0 = time.Now()
		if err := into.restore(statecodec.NewReader(w.Bytes())); err != nil {
			return 0, err
		}
		dec = append(dec, ms(t0))
		t0 = time.Now()
		if err := saver.Save(w); err != nil {
			return 0, err
		}
		save = append(save, ms(t0))
		if into, err = t.p.fresh(); err != nil {
			return 0, err
		}
		t0 = time.Now()
		if _, err := checkpoint.Load(filepath.Join(t.dir, "state.ckpt"), into.restore); err != nil {
			return 0, err
		}
		load = append(load, ms(t0))
		return 0, nil
	})
	if err != nil {
		return err
	}
	m["statecodec.encode_ms"], m["statecodec.decode_ms"] = median(enc), median(dec)
	m["checkpoint.restore_ms"] = median(enc) + median(dec)
	m["checkpoint.save_ms"], m["checkpoint.load_ms"] = median(save), median(load)
	m["checkpoint.bytes"] = float64(w.Len())
	return nil
}

// guardLayers measures the guard on the workload's requests: the
// decision in process from one and two goroutines, then over loopback
// sockets against the same server without the guard. It returns the
// guard's ladder tally over the whole list.
func (t *tracedRun) guardLayers() (mitigate.ActionCounts, error) {
	p, m := t.p, t.m
	events := p.in.events
	urls := p.urls
	if urls == nil {
		var err error
		if urls, err = parseURLs(events); err != nil {
			return mitigate.ActionCounts{}, err
		}
	}
	var actions mitigate.ActionCounts
	var heap, allocs float64
	var err error
	if m["httpguard.serve_ns"], err = t.repeat("httpguard.serve", 0.05, func() (float64, error) {
		var sys *guardSystem
		var cost passCost
		grown, err := heapGrowth(func() (err error) {
			if sys, err = buildGuard(true, false); err != nil {
				return err
			}
			cost, err = timePass(func() error { sys.serveInproc(events, urls, 1); return nil })
			return err
		})
		if err != nil {
			return 0, err
		}
		actions = sys.guard.StatsDetail().Actions
		runtime.KeepAlive(sys)
		allocs = float64(cost.mallocs) / float64(len(events))
		heap = grown / (1 << 20)
		return float64(cost.wall.Nanoseconds()) / float64(len(events)), nil
	}); err != nil {
		return actions, err
	}
	if p.def.replay == nil && actions != p.ref.actions {
		return actions, fmt.Errorf("in-process pass: ladder tally %+v differs from the reference %+v", actions, p.ref.actions)
	}
	m["httpguard.allocs_per_req"] = allocs
	m["httpguard.heap_mb"] = heap
	if m["httpguard.serve_ns_2g"], err = t.repeat("httpguard.serve_2g", 0.05, func() (float64, error) {
		sys, err := buildGuard(true, false)
		if err != nil {
			return 0, err
		}
		ns, _ := t.perLine(func() error { sys.serveInproc(events, urls, guardConns); return nil })
		return ns, checkActions(sys.guard.StatsDetail().Actions, actions, len(events), "two-goroutine pass")
	}); err != nil {
		return actions, err
	}
	return actions, t.socketLayers()
}

// openLoopRate is the fixed offered rate of the open-loop phases: a
// tenth of what the closed loop sustains on the reference host. At a
// quarter the dispatcher, which shares two cores with the server, runs
// later than the latency limit allows.
const openLoopRate = 6000

// latencyLimit is the open loop's limit on the 99th percentile; the
// generator is trusted only while it runs less than a tenth of it late.
const latencyLimit = 2 * time.Millisecond

// socketLayers runs the loopback phases: closed and open loop against
// the bare application, then against the guarded one with the metrics
// page scraped beside the traffic.
func (t *tracedRun) socketLayers() error {
	m := t.m
	events := t.p.in.events
	for _, guarded := range []bool{false, true} {
		prefix, share, openShare := "nethttp.bare_", 0.03, 0.08
		if guarded {
			prefix, share, openShare = "guard.", 0.05, 0.20
		}
		// Closed loop: what the connections sustain.
		rps, err := t.repeat(prefix+"closed", share, func() (float64, error) {
			sys, err := buildGuard(guarded, false)
			if err != nil {
				return 0, err
			}
			srv, err := startServer(sys.handler)
			if err != nil {
				return 0, err
			}
			defer srv.stop()
			t0 := time.Now()
			failed, _, err := closedLoop(srv.addr, sys.clock, events)
			if err == nil && failed > 0 {
				err = fmt.Errorf("%d requests failed", failed)
			}
			return float64(len(events)) / time.Since(t0).Seconds(), err
		})
		if err != nil {
			return err
		}
		m[prefix+"rps"] = rps

		// Open loop at the fixed rate, timed from each request's due time.
		dur := time.Duration(openShare * float64(t.budget))
		count := int(dur.Seconds() * openLoopRate)
		if count > len(events) {
			count = len(events)
		}
		id := t.log.begin(prefix+"open", -1)
		res, err := t.openLoopPhase(guarded, events[:count])
		t.log.end(id)
		if err != nil {
			return fmt.Errorf("%sopen: %w", prefix, err)
		}
		m[prefix+"p50_us"] = percentile(res.lat, 0.50)
		if !guarded {
			continue
		}
		m["guard.p99_us"] = percentile(res.lat, 0.99)
		m["guard.p999_us"] = percentile(res.lat, 0.999)
		m["guard.open_samples"] = float64(len(res.lat))
		m["guard.over_limit_share"] = res.overLimit
		m["guard.added_p50_us"] = m["guard.p50_us"] - m["nethttp.bare_p50_us"]
		m["gen.late_p99_us"] = percentile(res.late, 0.99)
		m["guard.openloop_ok"] = 0
		if m["gen.late_p99_us"] <= float64(latencyLimit.Microseconds())/10 {
			m["guard.openloop_ok"] = 1
		}
		m["guard.shed"] = float64(res.shed)
		m["metrics.scrape_us"] = median(res.scrapes)
	}
	return nil
}

// openResult is one open-loop phase's samples, in microseconds,
// ascending.
type openResult struct {
	lat, late, scrapes []float64
	overLimit          float64
	shed               uint64
}

func (t *tracedRun) openLoopPhase(guarded bool, events []workload.Event) (*openResult, error) {
	sys, err := buildGuard(guarded, false)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(sys.handler)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	res := &openResult{}
	stopScrape := func() {}
	if guarded {
		// The metrics page is read beside the writes, from the operations
		// listener a deployment would mount it on.
		ops, err := startServer(sys.guard.DebugHandler())
		if err != nil {
			return nil, err
		}
		defer ops.stop()
		quit, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			c, err := dialRaw(ops.addr)
			if err != nil {
				return
			}
			defer c.close()
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-quit:
					return
				case <-tick.C:
					t0 := time.Now()
					if status, err := c.get(httpguard.DebugMetricsPath); err != nil || status != 200 {
						return
					}
					res.scrapes = append(res.scrapes, float64(time.Since(t0).Nanoseconds())/1e3)
				}
			}
		}()
		stopScrape = func() { close(quit); <-done }
	}
	// Start from a collected heap, so that a collection cycle owed to the
	// phases before does not land in this one.
	runtime.GC()
	lat, late, failed, err := openLoop(srv.addr, sys.clock, events, openLoopRate)
	stopScrape()
	if err != nil {
		return nil, err
	}
	if failed > 0 {
		return nil, fmt.Errorf("%d requests failed", failed)
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	res.lat, res.late = lat, late
	limit := float64(latencyLimit.Microseconds())
	over := len(lat) - sort.SearchFloat64s(lat, limit)
	res.overLimit = float64(over) / float64(len(lat))
	if guarded {
		res.shed = sys.guard.Health().Shed
	}
	return res, nil
}
