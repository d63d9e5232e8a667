package pipeline

import (
	"fmt"
	"sync"

	"divscrape/internal/detector"
	"divscrape/internal/shard"
	"divscrape/internal/spsc"
	"divscrape/internal/trace"
)

// Total order is a delivery over the sharded engine, not an engine of its
// own. Detection never consumes cross-client order, so Run runs exactly
// the producer and workers RunRelaxed runs and restores stream order only
// in front of the sink: the producer also appends each request's shard
// index to a routing record, every shard parks its finished decisions in
// a FIFO of its own, and one emitter replays the record — pop a shard
// index, pop that shard's head, call the sink.
//
// Each shard's FIFO is already in stream order, so the replay needs no
// reorder buffer, no batches and no polling. It cannot deadlock either:
// the emitter only ever waits on the shard that owns the next sequence
// number, whose FIFO is then empty — so that shard's park cannot be
// blocked — and whose request was pushed into its ring before the record
// entry the emitter just popped; every other shard can at worst fill its
// FIFO and wait for the emitter to reach it.

// parked is one finished decision waiting for its turn at the sink. The
// Request changes hands — the worker gives it up, the emitter returns it
// to the pool after the sink call — and the verdicts and which sides sat
// out are copies, because the worker's own slabs are overwritten by its
// next request. The outcome is a value.
type parked struct {
	req      *detector.Request
	verdicts []detector.Verdict
	skipped  []bool
	out      shard.Outcome
}

// orderedDelivery is Run's working set on the sharded topology, kept on
// the Pipeline across runs.
type orderedDelivery struct {
	// route is the routing record: the shard of every request, in stream
	// order, written by the producer and replayed by the emitter.
	route *spsc.Ring[int32]
	// fifos[i] carries shard i's parked decisions from its worker to the
	// emitter; verdicts[i] and skipped[i] are the slabs their verdicts and
	// sat-out sides are copied into, one detector-count-sized window per
	// decision, used round-robin.
	fifos    []*spsc.Ring[parked]
	verdicts [][]detector.Verdict
	skipped  [][]bool
}

// orderedDelivery returns the pipeline's ordered delivery ready for a run,
// building it on first use — per shard one FIFO, one verdict slab and one
// slab of Requests for the pool, not an object per parked decision.
// Anything an aborted run left in the record or the FIFOs is dropped here:
// between runs both sides are quiescent.
func (p *Pipeline) orderedDelivery() *orderedDelivery {
	o := p.ordered
	if o == nil {
		shards, nd := len(p.shards), len(p.names)
		o = &orderedDelivery{
			fifos:    make([]*spsc.Ring[parked], shards),
			verdicts: make([][]detector.Verdict, shards),
			skipped:  make([][]bool, shards),
		}
		inflight := 0
		for i := range o.fifos {
			o.fifos[i] = spsc.New[parked](p.cfg.Buffer)
			// Two windows beyond the FIFO's capacity: while it is full, the
			// emitter's sink is still reading the window it popped last and
			// the worker is already filling the next one.
			n := o.fifos[i].Cap() + 2
			o.verdicts[i] = make([]detector.Verdict, n*nd)
			o.skipped[i] = make([]bool, n*nd)
			// Parked decisions hold on to their Requests, so that many more
			// are in flight than New filled the pool for.
			reqs := make([]detector.Request, n)
			for k := range reqs {
				p.reqPool.Put(&reqs[k])
			}
			inflight += p.rings[i].Cap() + n
		}
		// The record holds an entry for every request between the producer
		// and the emitter, so it is sized to never be the first to fill.
		o.route = spsc.New[int32](inflight)
		p.ordered = o
	}
	reopen(o.route)
	for _, f := range o.fifos {
		reopen(f)
	}
	return o
}

// parks returns the shard workers' sinks under ordered delivery: sink i
// queues the decision for the emitter — the Request itself, the verdicts
// and shard i's sat-out sides copied into its next window — blocking while
// the FIFO is full (the emitter's backpressure). A park the run's
// cancellation interrupts drops its decision, Request included; the worker
// then drains its ring as it would after another shard's sink error.
func (o *orderedDelivery) parks(done <-chan struct{}, shards shard.Set) []Sink {
	sinks := make([]Sink, len(o.fifos))
	for i := range sinks {
		fifo, slab, skipSlab, k := o.fifos[i], o.verdicts[i], o.skipped[i], 0
		skipped := shards[i].Skipped()
		sinks[i] = func(d Decision) error {
			nd := len(d.Verdicts)
			window, skipWindow := slab[k:k+nd:k+nd], skipSlab[k:k+nd:k+nd]
			copy(window, d.Verdicts)
			copy(skipWindow, skipped)
			if fifo.Push(done, parked{req: d.Req, verdicts: window, skipped: skipWindow, out: d.Outcome}) {
				if k += nd; k == len(slab) {
					k = 0
				}
			}
			return nil
		}
	}
	return sinks
}

// emit replays the routing record into sink until the record is closed
// and drained (end of stream), the run is cancelled, or sink fails — in
// which case the failing call is the last one made. With tracing on it
// also offers each decision to the flight recorder, here and not on the
// shard, so that the audit stream and the head/rate sampling are the
// sequential run's. The shard's feature scratch has moved on by now, so
// these records carry no vectors.
func (o *orderedDelivery) emit(done <-chan struct{}, tr *trace.Tracer, names []string, reqPool *sync.Pool, sink Sink) error {
	for {
		select {
		case <-done:
			return nil
		default:
		}
		s, ok := o.route.Pop(done)
		if !ok {
			return nil
		}
		fifo := o.fifos[s]
		next, ok := fifo.TryPop()
		if !ok {
			// A stall: the decision next in stream order is still being
			// judged, and everything the other shards have parked waits
			// behind it.
			if tr != nil {
				tr.MergeStall()
				pending := 0
				for _, f := range o.fifos {
					pending += f.Len()
				}
				tr.MergePending(pending)
			}
			if next, ok = fifo.Pop(done); !ok {
				return nil
			}
		}
		if tr != nil {
			shard.Capture(tr.Recorder(), names, next.req, next.verdicts, nil, next.skipped, &next.out)
		}
		ts := tr.Now()
		err := sink(Decision{Req: next.req, Verdicts: next.verdicts, Outcome: next.out})
		tr.Lap(trace.StageSink, ts)
		reqPool.Put(next.req)
		if err != nil {
			return fmt.Errorf("pipeline: sink: %w", err)
		}
	}
}
