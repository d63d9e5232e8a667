// Package pipeline wires the detection system together as a streaming
// dataflow: parse → enrich → judge → collect. Judging is internal/shard's
// step — every detector, then, with Config.Mitigation, the ladder, then the
// flight record — and the pipeline is its host for replays and tails: it
// owns the source, the enricher, the shard set and when each shard sweeps.
// It has two engines:
//
//   - Sequential runs everything on the caller's goroutine over one
//     shard. It is the reference implementation: byte-for-byte
//     deterministic, zero coordination overhead, and allocation-free in
//     steady state (one reused Request, flat feature vectors inside the
//     detectors). Pick it for single-core replays, live tails, debugging,
//     and as the equivalence oracle.
//
//   - Sharded partitions the enriched stream by client IP (shard.Of)
//     across N worker shards, each a private instance of every detector
//     built from detector.Factory values, and of the engine. Requests
//     stream through one bounded SPSC ring per shard (internal/spsc) from
//     pooled Requests, so the steady-state hot path performs no
//     allocations. Because every detector and the ladder key all state by
//     client, and session expiry is decidable from a key's own touch
//     times alone, a client's verdicts and actions are identical
//     whichever shard serves it. See relaxed.go.
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
// Pipelines are also durable: Checkpoint serialises the enricher position
// and every detector's per-client state — SnapshotLadder the engines' —
// in a canonical, shard-agnostic form, and ResumeFrom / RestoreLadder
// restore it into a fresh pipeline of any mode or shard count, continuing
// the decision stream byte-identically — see checkpoint.go and
// internal/statecodec.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
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
	// Verdicts aligns with the pipeline's detector list. Like Req, the
	// slice is owned by the pipeline and reused after the sink returns;
	// copy what you keep.
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
	// Detectors is the ordered detector list. Required for Sequential mode
	// unless Factories is set, in which case the list is built from the
	// factories.
	Detectors []detector.Detector
	// Factories builds private detector instances per shard, in the same
	// order as Detectors. Required for Sharded mode.
	Factories []detector.Factory
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
	cfg      Config
	enricher *detector.Enricher
	names    []string
	// shards holds each shard's decision core — private detector
	// instances and, with Config.Mitigation, a private engine — built once
	// at New so state persists across runs; Sequential mode is the
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
}

// New validates cfg and builds a pipeline.
func New(cfg Config) (*Pipeline, error) {
	for i, d := range cfg.Detectors {
		if d == nil {
			return nil, fmt.Errorf("pipeline: detector %d is nil", i)
		}
	}
	if cfg.Mode == 0 {
		cfg.Mode = Sequential
	}
	if cfg.Mode != Sequential && cfg.Mode != Sharded {
		return nil, fmt.Errorf("pipeline: invalid mode %d", int(cfg.Mode))
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
	p := &Pipeline{cfg: cfg, enricher: detector.NewEnricher(cfg.Reputation)}
	if cfg.Mode == Sequential {
		dets := cfg.Detectors
		if len(dets) == 0 {
			var err error
			if dets, err = detector.Build(cfg.Factories); err != nil {
				return nil, fmt.Errorf("pipeline: %w", err)
			}
		}
		if len(dets) == 0 {
			return nil, fmt.Errorf("pipeline: need at least one detector")
		}
		return p, p.addShard(dets)
	}
	if len(cfg.Factories) == 0 {
		return nil, fmt.Errorf("pipeline: mode %d requires Factories", int(cfg.Mode))
	}
	if len(cfg.Detectors) > 0 && len(cfg.Factories) != len(cfg.Detectors) {
		return nil, fmt.Errorf("pipeline: %d factories for %d detectors",
			len(cfg.Factories), len(cfg.Detectors))
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
		dets, err := detector.Build(cfg.Factories)
		if err == nil {
			err = p.addShard(dets)
		}
		if err != nil {
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

// addShard appends the decision core judging on dets.
func (p *Pipeline) addShard(dets []detector.Detector) error {
	if p.names == nil {
		for _, d := range dets {
			p.names = append(p.names, d.Name())
		}
	}
	sh, err := shard.New(dets, p.cfg.Mitigation)
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	sh.Names, sh.Window, sh.Tracer = p.names, p.cfg.EvictWindow, p.cfg.Trace
	p.shards = append(p.shards, sh)
	p.evictLast = append(p.evictLast, time.Time{})
	return nil
}

// Shards returns the effective worker-shard count: the configured (or
// defaulted) count in Sharded mode, 1 otherwise. Benchmarks report it so
// recorded results stay interpretable across machines.
func (p *Pipeline) Shards() int { return len(p.shards) }

// Detectors returns the registered detector names in order.
func (p *Pipeline) Detectors() []string { return append([]string(nil), p.names...) }

// ResetDetectors clears all detector, ladder and enricher state,
// preparing the pipeline for an independent dataset.
func (p *Pipeline) ResetDetectors() {
	for i, sh := range p.shards {
		for _, d := range sh.Dets {
			d.Reset()
		}
		if sh.Engine != nil {
			sh.Engine.Reset()
		}
		// The next dataset may start earlier than this one ended; an anchor
		// left in its future would hold every sweep off until event time
		// passed it again.
		p.evictLast[i] = time.Time{}
	}
	p.enricher.Reset()
}

// step is one request on shard i: the windowed sweep when the shard's
// cadence says one is due, then the judgement. Each worker paces its own
// sweeps on the event time of the requests it judges — a shard only holds
// state for clients that hash to it, and sweeping is decision-neutral, so
// per-shard cadence drift is invisible; the cost when no sweep is due is
// one time comparison.
func (p *Pipeline) step(i int, req *detector.Request, out *shard.Outcome) {
	sh := p.shards[i]
	if p.shared {
		sh.Lock()
	}
	if now := req.Entry.Time; p.cfg.EvictWindow > 0 && !now.IsZero() {
		if last := &p.evictLast[i]; last.IsZero() {
			*last = now
		} else if now.Sub(*last) >= p.cfg.EvictEvery {
			*last = now
			p.sweeps.Add(1)
			p.evicted.Add(uint64(sh.Sweep(now)))
		}
	}
	sh.Judge(req, out)
	if p.shared {
		sh.Unlock()
	}
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
// instead, which skips the serial emitter.
func (p *Pipeline) Run(ctx context.Context, src EntrySource, sink Sink) error {
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
		ts = tr.Lap(trace.StageParse, ts)
		p.enricher.EnrichInto(&req, entry)
		tr.Lap(trace.StageEnrich, ts)
		p.step(0, &req, &d.Outcome)
		ts = tr.Now()
		if err := sink(d); err != nil {
			return fmt.Errorf("pipeline: sink: %w", err)
		}
		tr.Lap(trace.StageSink, ts)
		n++
	}
}
