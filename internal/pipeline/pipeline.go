// Package pipeline wires the detection system together as a streaming
// dataflow: parse → enrich → judge → collect. Enriching and judging are
// internal/shard's steps — the shard's enricher, every detector behind the
// shard's failure plane, then, with Config.Mitigation, the ladder, then the
// flight record — and the pipeline is their host for replays and tails: it
// owns the source, the stream position each request is stamped with, the
// shard set, when each shard sweeps, and what a run reports of a side that
// panicked.
// It has two engines:
//
//   - Sequential runs everything on the caller's goroutine over one
//     shard. It is the reference implementation: byte-for-byte
//     deterministic, zero coordination overhead, and allocation-free in
//     steady state (one reused Request, flat feature vectors inside the
//     detectors). Pick it for single-core replays, live tails, debugging,
//     and as the equivalence oracle.
//
//   - Sharded partitions the stream by client IP (shard.OfKey) across N
//     worker shards, each a private instance of the enricher, of every
//     detector built from detector.Factory values, and of the engine. The
//     producer only stamps and routes; each shard enriches what it judges.
//     Requests stream through one bounded SPSC ring per shard
//     (internal/spsc) from pooled Requests, so the steady-state hot path
//     performs no allocations. Because the enricher, every detector and
//     the ladder key all state by client, and session expiry is decidable
//     from a key's own touch times alone, a client's verdicts and actions
//     are identical whichever shard serves it. See relaxed.go.
//
// The sharded engine delivers its decisions in one of two ways, chosen by
// the method called rather than by a mode. RunRelaxed takes one sink per
// shard and every shard drains straight into its own: only per-client
// order is guaranteed — each client's decision sequence is byte-identical
// to Sequential, and the union of all shards' decisions is multiset-equal
// to the sequential stream — which is all the detectors, session stores
// and the mitigation ladder require, and it is the delivery whose
// throughput scales with GOMAXPROCS. Run takes one sink and restores
// stream order in front of it (ordered.go): the shards park their
// finished decisions and one emitter replays them in input order, so the
// sink sees a Decision stream byte-identical to Sequential's, from one
// goroutine at a time. That emitter is a serial section; it is the price
// of total order, paid only by consumers of one in-order stream.
//
// Determinism guarantee: for the same input stream, Run invokes its sink
// with identical Decision contents in identical order on either engine;
// RunRelaxed invokes its per-shard sinks with the same decisions in a
// per-client-preserving permutation of that order. Only the internal
// schedule differs.
//
// A detector that panics never ends a run. Its shard quarantines it — the
// request is judged by the other sides, its verdict zeroed and the
// Outcome Degraded — and rebuilds it from its factory once a backoff of
// event time has passed. The pipeline keeps no last-good snapshot, so the
// side comes back cold: a copy of every side's state per shard would cost
// what the state itself costs. The run finishes the stream and returns one
// *shard.PanicError per quarantine, joined (SplitPanics parts them from a
// failure of the run itself), so a finite replay never loses a side
// silently; Quarantines counts them while a run is in flight. A panic
// anywhere else — the enricher, a sweep, the ladder, a sink — reaches the
// caller of Run or RunRelaxed, whichever goroutine it was raised on.
//
// Pipelines are also durable: Checkpoint serialises the stream position
// and every detector's per-client state — SnapshotLadder the engines' —
// in a canonical, shard-agnostic form, and ResumeFrom / RestoreLadder
// restore it into a fresh pipeline of any mode or shard count, continuing
// the decision stream byte-identically — see checkpoint.go and
// internal/statecodec.
package pipeline

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
	"divscrape/internal/shard"
	"divscrape/internal/spsc"
	"divscrape/internal/trace"
)

// Decision is the pipeline's per-request output: the enriched request,
// one verdict per registered detector in registration order, and what the
// shard that judged it decided beyond them.
type Decision struct {
	// Req is the enriched request. The pointer is owned by the pipeline
	// and only valid during the sink call; copy what you keep, and
	// strings.Clone a kept Path, RawRequest or Referer (see logfmt.Entry).
	Req *detector.Request
	// Verdicts aligns with the pipeline's detector list; a quarantined
	// side's is zero, and Outcome.Degraded set. Like Req, the slice is
	// owned by the pipeline and reused after the sink returns; copy what
	// you keep.
	Verdicts []detector.Verdict
	// Outcome is the challenge-flow role and, with Config.Mitigation, the
	// ladder's decision. A value, valid after the sink returns.
	Outcome shard.Outcome
}

// Mode selects the execution engine.
type Mode int

const (
	// Sequential runs everything on the caller's goroutine; byte-for-byte
	// deterministic and allocation-light. The default.
	Sequential Mode = iota + 1
	// Sharded partitions the stream by client IP across worker shards,
	// each owning private detector instances built from Config.Factories
	// and fed through a bounded SPSC ring. Run restores stream order
	// before its one sink (Decision stream identical to Sequential);
	// RunRelaxed drains every shard into a sink of its own and guarantees
	// per-client order only.
	Sharded
	// ShardedRelaxed is Sharded under the name it had while per-shard
	// delivery was a mode of its own.
	ShardedRelaxed = Sharded
)

// Config parameterises New.
type Config struct {
	// Factories builds every shard's detector instances, in inspection
	// order, and rebuilds a side its shard quarantined. Required.
	Factories []detector.Factory
	// Detectors, when set, are the Sequential shard's instances, one per
	// factory; a Sharded pipeline builds all of its own.
	Detectors []detector.Detector
	// Reputation enriches requests with IP categories; nil disables.
	Reputation *iprep.DB
	// Mitigation, when non-nil, gives every shard a mitigation engine
	// under this policy: the shard that judges a request also applies the
	// ladder to it — which needs only the per-client order every delivery
	// keeps — and the sink reads the result in Decision.Outcome.
	Mitigation *mitigate.Policy
	// Mode selects Sequential (default) or Sharded execution.
	Mode Mode
	// Buffer is the depth of each shard's hand-off ring in Sharded mode,
	// counted in requests (rounded up to a power of two). Default 256.
	Buffer int
	// Shards is the worker count in Sharded mode. Default GOMAXPROCS.
	Shards int
	// EvictWindow, when positive, enables windowed eviction: as stream
	// (event) time advances, detector state untouched for longer than the
	// window is proactively dropped via detector.Evictable (and ladder
	// state idle past its policy's IdleTTL with it), so steady-state memory
	// over an unbounded stream is O(clients active in the window) instead
	// of O(clients ever seen). Keep the window at or
	// above every detector's idle timeout and eviction is verdict-neutral
	// in every mode — proactive sweeps drop exactly the state lazy idle
	// expiry would have dropped before its next read (pinned by the
	// metamorphic eviction-equivalence test). Zero disables sweeping.
	EvictWindow time.Duration
	// EvictEvery is the sweep cadence, measured in event time. Default
	// EvictWindow/4 (at least one second).
	EvictEvery time.Duration
	// Trace, when non-nil, records per-stage spans (parse, enrich, one
	// detect span per detector, ensemble with Mitigation, merge, sink) and
	// — in Sharded mode — the per-shard ring-depth gauges plus, under
	// Run's ordered delivery, the emitter's pending/stall instruments; and
	// every decision is offered to its flight recorder (by the shard that
	// judged it, or by the ordered delivery's emitter). Tracing is
	// observation only:
	// the Decision stream and checkpoint bytes are identical with Trace
	// set or nil (pinned by the tracing equivalence test), and a nil Trace
	// costs one nil check per span point, keeping the hot path
	// allocation-free. Build with trace.New, passing Shards matching this
	// config's (post-default) shard count when Mode is Sharded.
	Trace *trace.Tracer
}

// Pipeline executes detection runs. It is single-use-at-a-time: a Pipeline
// must not run two streams concurrently, but may be reused sequentially
// (detector state carries over; call ResetDetectors between independent
// datasets).
type Pipeline struct {
	cfg   Config
	names []string
	// seq is the stream position: the next request's Seq.
	seq uint64
	// shards holds each shard's decision core — a private enricher and
	// detector instances and, with Config.Mitigation, a private engine —
	// built once at New so state persists across runs; Sequential mode is the
	// one-shard case, its detectors Config.Detectors (or built from
	// Factories). evictLast is each shard's sweep-cadence anchor, kept
	// here and not on the run so that a stream cut into segments (a
	// periodic checkpoint ends one Run and starts the next) sweeps as
	// often as the uncut one.
	shards    shard.Set
	evictLast []time.Time
	// shared is set once the shard set has been handed out as a
	// cluster.Backend (cluster.go); a plain replay never locks.
	shared bool
	// rings and reqPool are the Sharded working set: one SPSC hand-off
	// ring per shard and the pool the Requests travelling through the
	// rings recycle into. They live on the Pipeline — not the run — so
	// repeated runs share one warmed set instead of re-allocating it.
	rings   []*relaxedRing
	reqPool sync.Pool
	// ordered is Run's total-order delivery over the shards, built by the
	// first Run that asks for it: a pipeline only ever driven through
	// RunRelaxed never pays for its slabs.
	ordered *orderedDelivery
	// sweeps and evicted are atomics because shard workers update them.
	sweeps  atomic.Uint64
	evicted atomic.Uint64
	// panics and restores count each side's quarantines and restores over
	// the pipeline's life; runPanics[i] collects shard i's panics during a
	// run, for its error. Each is written by the shard's judging goroutine.
	panics, restores []atomic.Uint64
	runPanics        [][]*shard.PanicError
}

// New validates cfg and builds a pipeline.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Mode == 0 {
		cfg.Mode = Sequential
	}
	if cfg.Mode != Sequential && cfg.Mode != Sharded {
		return nil, fmt.Errorf("pipeline: invalid mode %d", int(cfg.Mode))
	}
	if len(cfg.Factories) == 0 {
		return nil, fmt.Errorf("pipeline: Factories is required: it builds every shard's detectors and rebuilds a quarantined one")
	}
	if len(cfg.Detectors) > 0 && len(cfg.Factories) != len(cfg.Detectors) {
		return nil, fmt.Errorf("pipeline: %d factories for %d detectors",
			len(cfg.Factories), len(cfg.Detectors))
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 256
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.EvictWindow < 0 {
		return nil, fmt.Errorf("pipeline: EvictWindow must be non-negative, got %v", cfg.EvictWindow)
	}
	if cfg.EvictWindow > 0 && cfg.EvictEvery <= 0 {
		cfg.EvictEvery = cfg.EvictWindow / 4
		if cfg.EvictEvery < time.Second {
			cfg.EvictEvery = time.Second
		}
	}
	p := &Pipeline{cfg: cfg}
	if cfg.Mode == Sequential {
		return p, p.addShard(cfg.Detectors)
	}
	// No run touches cfg.Detectors in this mode: every shard judges on
	// instances of its own.
	//
	// One ring per shard, Buffer requests deep (spsc rounds up to a power
	// of two). The maximum in-flight Request count is the sum of ring
	// capacities plus one per worker and one at the producer; pre-fill the
	// pool to that bound so the first run streams without allocating.
	p.reqPool.New = func() any { return new(detector.Request) }
	p.rings = make([]*relaxedRing, cfg.Shards)
	inflight := cfg.Shards + 1
	for i := range p.rings {
		if err := p.addShard(nil); err != nil {
			return nil, fmt.Errorf("pipeline: shard %d: %w", i, err)
		}
		p.rings[i] = spsc.New[*detector.Request](cfg.Buffer)
		inflight += p.rings[i].Cap()
	}
	for i := 0; i < inflight; i++ {
		p.reqPool.Put(new(detector.Request))
	}
	return p, nil
}

// addShard appends a decision core judging on dets, or on instances built
// from the factories when dets is nil.
func (p *Pipeline) addShard(dets []detector.Detector) error {
	sh, err := shard.New(p.cfg.Factories, dets, p.cfg.Mitigation, p.cfg.Reputation)
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	i := len(p.shards)
	if i == 0 {
		p.names = sh.Names
		p.panics, p.restores = make([]atomic.Uint64, len(sh.Names)), make([]atomic.Uint64, len(sh.Names))
	}
	sh.Index, sh.Window, sh.Tracer = i, p.cfg.EvictWindow, p.cfg.Trace
	sh.OnHealth = func(side int, _ time.Time, pe *shard.PanicError) { p.observe(i, side, pe) }
	p.shards = append(p.shards, sh)
	p.evictLast = append(p.evictLast, time.Time{})
	p.runPanics = append(p.runPanics, nil)
	return nil
}

// observe is shard i's failure-plane observer, on its judging goroutine:
// side quarantined by pe, or restored when pe is nil.
func (p *Pipeline) observe(i, side int, pe *shard.PanicError) {
	if pe == nil {
		p.restores[side].Add(1)
		return
	}
	p.panics[side].Add(1)
	p.runPanics[i] = append(p.runPanics[i], pe)
}

// Quarantines reports how often side i (in Detectors order) has been
// quarantined and restored over the pipeline's life, across shards; the
// difference is the number of shards it sits out on now. It reads atomics
// only: a watchdog may call it while a run is in flight.
func (p *Pipeline) Quarantines(i int) (panics, restores uint64) {
	return p.panics[i].Load(), p.restores[i].Load()
}

// withPanics joins err — the run's own failure, or nil — with one
// *shard.PanicError per quarantine of the run that just ended, in stream
// order, and empties the shards' lists for the next run.
func (p *Pipeline) withPanics(err error) error {
	var panics []*shard.PanicError
	for i, l := range p.runPanics {
		panics = append(panics, l...)
		p.runPanics[i] = l[:0]
	}
	if len(panics) == 0 {
		return err
	}
	slices.SortStableFunc(panics, func(a, b *shard.PanicError) int { return cmp.Compare(a.Seq, b.Seq) })
	errs := []error{err}
	for _, pe := range panics {
		errs = append(errs, pe)
	}
	return errors.Join(errs...)
}

// SplitPanics parts what Run or RunRelaxed returned into the run's own
// failure — nil when it delivered every decision — and the sides it lost
// on the way, one *shard.PanicError each.
func SplitPanics(err error) (failure error, panics []error) {
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		return err, nil
	}
	for _, e := range joined.Unwrap() {
		if _, ok := e.(*shard.PanicError); ok {
			panics = append(panics, e)
		} else {
			failure = e // withPanics joins at most one
		}
	}
	return failure, panics
}

// Shards returns the effective worker-shard count: the configured (or
// defaulted) count in Sharded mode, 1 otherwise. Benchmarks report it so
// recorded results stay interpretable across machines.
func (p *Pipeline) Shards() int { return len(p.shards) }

// Detectors returns the registered detector names in order.
func (p *Pipeline) Detectors() []string { return append([]string(nil), p.names...) }

// ResetDetectors clears all detector, ladder and enricher state and the
// stream position, preparing the pipeline for an independent dataset.
func (p *Pipeline) ResetDetectors() {
	for i, sh := range p.shards {
		// A side quarantined here comes back with the reset, cold.
		for j := range p.restores {
			if sh.Health(j).Quarantined {
				p.restores[j].Add(1)
			}
		}
		sh.Reset()
		// The next dataset may start earlier than this one ended; an anchor
		// left in its future would hold every sweep off until event time
		// passed it again.
		p.evictLast[i] = time.Time{}
	}
	p.seq = 0
}

// step is one stamped request on shard i: the windowed sweep when the
// shard's cadence says one is due, then enrichment and the judgement. Each
// worker paces its own sweeps on the event time of the requests it judges
// — a shard only holds state for clients that hash to it, and sweeping is
// decision-neutral, so per-shard cadence drift is invisible; the cost when
// no sweep is due is two time comparisons.
func (p *Pipeline) step(i int, req *detector.Request, out *shard.Outcome) {
	sh := p.shards[i]
	if p.shared {
		// Deferred: a panic past the failure plane must not leave the
		// cluster plane's merges waiting on this shard forever.
		sh.Lock()
		defer sh.Unlock()
	}
	if now := req.Entry.Time; p.cfg.EvictWindow > 0 && !now.IsZero() {
		// A line more than a period before the anchor — as after one
		// stamped far ahead of the stream — sweeps and re-anchors on
		// itself, so that one line does not stop the sweeps for good.
		if last := &p.evictLast[i]; last.IsZero() {
			*last = now
		} else if d := now.Sub(*last); d >= p.cfg.EvictEvery || d < -p.cfg.EvictEvery {
			*last = now
			p.sweeps.Add(1)
			p.evicted.Add(uint64(sh.Sweep(now)))
		}
	}
	tr := p.cfg.Trace
	ts := tr.Now()
	sh.Enrich(req)
	tr.Lap(trace.StageEnrich, ts)
	sh.Judge(req, out)
}

// EvictionStats reports how many windowed sweeps have run and how many
// state entries they evicted (lifetime, across all modes and workers).
func (p *Pipeline) EvictionStats() (sweeps, evicted uint64) {
	return p.sweeps.Load(), p.evicted.Load()
}

// EntrySource yields log entries in timestamp order; it returns io.EOF
// when the stream ends.
type EntrySource func() (logfmt.Entry, error)

// Sink consumes decisions in stream order; returning an error aborts the
// run.
type Sink func(Decision) error

// Run streams src through the detectors into sink, which is called from
// one goroutine at a time with the decisions in stream order — in Sharded
// mode through the ordered delivery of ordered.go. A consumer that only
// needs per-client order should use RunRelaxed with one sink per shard
// instead, which skips the serial emitter. A side that panicked is in the
// returned error (see the package documentation).
func (p *Pipeline) Run(ctx context.Context, src EntrySource, sink Sink) (err error) {
	defer func() { err = p.withPanics(err) }()
	if p.cfg.Mode == Sharded {
		return p.runRelaxed(ctx, src, nil, sink)
	}
	return p.runSequential(ctx, src, sink)
}

// RunReader streams an access log in Combined Log Format through the
// detectors. Malformed lines are handled according to policy.
func (p *Pipeline) RunReader(ctx context.Context, r io.Reader, policy logfmt.ErrPolicy, sink Sink) error {
	lr := logfmt.NewReader(r, logfmt.ReaderConfig{Policy: policy})
	return p.Run(ctx, lr.Next, sink)
}

func (p *Pipeline) runSequential(ctx context.Context, src EntrySource, sink Sink) error {
	// One Request and the shard's verdict slab reused for the whole run
	// (and across runs): the sink contract says both are only valid during
	// the call, so nothing outlives the loop and the steady-state decision
	// path performs no allocations.
	var req detector.Request
	d := Decision{Req: &req, Verdicts: p.shards[0].Verdicts()}
	tr := p.cfg.Trace
	n := 0
	for {
		if n%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ts := tr.Now()
		entry, err := src()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("pipeline: source: %w", err)
		}
		tr.Lap(trace.StageParse, ts)
		req.Seq, req.Entry = p.seq, entry
		p.seq++
		p.step(0, &req, &d.Outcome)
		ts = tr.Now()
		if err := sink(d); err != nil {
			return fmt.Errorf("pipeline: sink: %w", err)
		}
		tr.Lap(trace.StageSink, ts)
		n++
	}
}
