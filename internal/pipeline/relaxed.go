package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"divscrape/internal/detector"
	"divscrape/internal/shard"
	"divscrape/internal/spsc"
	"divscrape/internal/trace"
)

// The sharded engine. The producer reads on one goroutine, stamps each
// entry with its stream position — sequence numbers stay in input order —
// and partitions by client IP; requests travel one at a time through a
// bounded SPSC ring per shard, and each shard enriches and judges them on
// its private enricher and detector instances and drains straight into
// its own sink. No batches, no cross-shard synchronisation after the
// hand-off.
//
// Ordering contract: all requests from one client hash to one shard
// (shard.OfKey), the producer stamps in input order, and the ring is FIFO,
// so each client's decision sequence is byte-identical to Sequential —
// which is the only order the detectors, sessions and the mitigation
// ladder depend on. Across clients, the interleaving is a permutation of
// the sequential stream: the union of all shards' decisions is multiset-
// equal to Sequential. That is what RunRelaxed delivers; Run rebuilds the
// total order on top of it (ordered.go). Both guarantees are pinned by
// the metamorphic equivalence suites at ≥50k events.

// relaxedRing is the per-shard hand-off queue. Requests come from the
// pipeline's reqPool and return to it after the sink call, so the
// steady-state stream performs no allocations.
type relaxedRing = spsc.Ring[*detector.Request]

// reopen empties a ring whose two sides are quiescent and readies it for
// another stream. What it drops — Requests an aborted run left queued —
// the pool replaces on demand.
func reopen[T any](r *spsc.Ring[T]) {
	for {
		if _, ok := r.TryPop(); !ok {
			break
		}
	}
	r.Reopen()
}

// RunRelaxed streams src through the sharded engine, draining shard i's
// decisions into sinks[i]. len(sinks) must equal the pipeline's shard
// count. Each sink is called from exactly one goroutine (no sink needs to
// be concurrency-safe), in that shard's stream order; across sinks there
// is no ordering. The usual Decision contract holds per call: Req and
// Verdicts are only valid during the call. A side that panicked is in the
// returned error, as for Run.
func (p *Pipeline) RunRelaxed(ctx context.Context, src EntrySource, sinks []Sink) (err error) {
	if p.cfg.Mode != Sharded {
		return fmt.Errorf("pipeline: RunRelaxed requires Sharded mode (have mode %d)", int(p.cfg.Mode))
	}
	if len(sinks) != len(p.shards) {
		return fmt.Errorf("pipeline: RunRelaxed needs one sink per shard: %d sinks for %d shards",
			len(sinks), len(p.shards))
	}
	for i, s := range sinks {
		if s == nil {
			return fmt.Errorf("pipeline: RunRelaxed sink %d is nil", i)
		}
	}
	defer func() { err = p.withPanics(err) }()
	return p.runRelaxed(ctx, src, sinks, nil)
}

// runRelaxed is the one sharded run loop. With total nil, shard i drains
// into sinks[i]; with total set, the shards' sinks are the ordered
// delivery's parks and an emitter goroutine replays them into total in
// stream order. A panic on a worker or the emitter cancels the run and is
// raised again on the caller's goroutine once every goroutine has exited,
// where Sequential mode raises it too.
func (p *Pipeline) runRelaxed(ctx context.Context, src EntrySource, sinks []Sink, total Sink) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := ctx.Done()

	shards := len(p.shards)
	tr := p.cfg.Trace
	reqPool := &p.reqPool

	// Rings persist on the Pipeline across runs (allocated in New) and are
	// closed at the end of every run; an aborted run may additionally
	// leave items queued. Empty and reopen them here — between runs the
	// caller owns the pipeline, so both sides are quiescent.
	rings := p.rings
	for _, r := range rings {
		reopen(r)
	}

	sinkErrs := make([]error, shards)
	var srcErr, emitErr error
	var wg sync.WaitGroup
	// escaped[i] is the panic that ended worker i, escaped[shards] the
	// emitter's.
	escaped := make([]any, shards+1)
	recoverInto := func(slot *any) {
		if *slot = recover(); *slot != nil {
			cancel()
		}
		wg.Done()
	}

	// Under ordered delivery a worker's "sink" parks the decision for the
	// emitter, which is a hand-off, not the caller's sink: its span is
	// recorded as the merge stage and the emitter records the sink's.
	sinkStage := trace.StageSink
	var ord *orderedDelivery
	if total != nil {
		ord = p.orderedDelivery()
		sinks = ord.parks(done, p.shards)
		sinkStage = trace.StageMerge
		wg.Add(1)
		go func() {
			defer recoverInto(&escaped[shards])
			if emitErr = ord.emit(done, tr, p.names, reqPool, total); emitErr != nil {
				cancel()
			}
		}()
	}

	// Shard workers: each judges on its shard's private decision core
	// (step) and hands the result to a private sink.
	for i := 0; i < shards; i++ {
		// Under ordered delivery the flight record is the emitter's to
		// capture, in stream order.
		p.shards[i].DeferCapture = ord != nil
		wg.Add(1)
		go func(i int, ring *relaxedRing, sink Sink) {
			defer recoverInto(&escaped[i])
			d := Decision{Verdicts: p.shards[i].Verdicts()}
			for {
				req, ok := ring.Pop(done)
				if !ok {
					return
				}
				d.Req = req
				p.step(i, req, &d.Outcome)
				ts := tr.Now()
				err := sink(d)
				tr.Lap(sinkStage, ts)
				if ord == nil {
					// (A park keeps the Request; the emitter recycles it.)
					reqPool.Put(req)
				}
				if err != nil {
					sinkErrs[i] = fmt.Errorf("pipeline: sink: %w", err)
					cancel()
					return
				}
			}
		}(i, rings[i], sinks[i])
	}

	// Producer on the caller's goroutine: parse and stamp in input order,
	// route by client hash, push into the shard's ring — and, under ordered delivery, append the
	// shard to the routing record the emitter replays. A full ring blocks
	// the producer — that is the backpressure path; the ring parks on a
	// wake channel rather than spinning, so a saturated shard never
	// starves its peers of the core they share.
	for {
		ts := tr.Now()
		entry, err := src()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			srcErr = fmt.Errorf("pipeline: source: %w", err)
			cancel()
			break
		}
		tr.Lap(trace.StageParse, ts)
		req := reqPool.Get().(*detector.Request)
		req.Seq, req.Entry = p.seq, entry
		p.seq++
		s, _ := shard.OfKey(entry.RemoteAddr, shards)
		if !rings[s].Push(done, req) {
			// Cancelled (a sink error or the caller's context); the
			// request never entered the ring.
			reqPool.Put(req)
			break
		}
		if tr != nil {
			// Len loads both of the consumer's indices: only when traced.
			tr.RingDepth(s, rings[s].Len())
		}
		if ord != nil && !ord.route.Push(done, int32(s)) {
			break
		}
	}

	// End of stream (or abort): close every ring so workers drain what is
	// queued and exit, then collect the first error by shard order. (The
	// next run's reopen drops anything a cancelled worker left queued.)
	for _, r := range rings {
		r.Close()
	}
	if ord != nil {
		ord.route.Close()
	}
	wg.Wait()

	for _, v := range escaped {
		if v != nil {
			panic(v)
		}
	}
	if srcErr != nil {
		return srcErr
	}
	if emitErr != nil {
		return emitErr
	}
	for _, err := range sinkErrs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}
