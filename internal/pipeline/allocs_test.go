package pipeline

import (
	"context"
	"testing"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
)

// The full sequential decision path — enrich, both detectors, verdict
// recording, sink hand-off — must be allocation-free per request in
// steady state: once caches are warm and session state exists, replaying
// the stream performs only a fixed handful of per-run setup allocations
// no matter how many requests flow through. This is the package-level
// counterpart of the per-component alloc tests in internal/detector,
// internal/sentinel and internal/arcane.
func TestSequentialDecisionPathZeroAllocsSteadyState(t *testing.T) {
	events := generate(t, 2)
	p := newPipe(t, Sequential)

	run := func() {
		if err := p.Run(context.Background(), sourceFrom(events), func(Decision) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: parse caches fill, per-client sessions and their state
	// allocate once. Detector state is deliberately NOT reset afterwards —
	// steady state means the same clients keep flowing.
	run()

	allocs := testing.AllocsPerRun(1, run)
	// A full replay re-touches every session without allocating; only a
	// fixed, stream-length-independent setup cost remains (source closure,
	// context check, pool jitter). With tens of thousands of events, a
	// budget this small proves the per-request cost is zero.
	const budget = 32
	if allocs > budget {
		t.Errorf("sequential replay of %d events allocated %.0f times, want <= %d (0 allocs/request)",
			len(events), allocs, budget)
	}
}

// The sharded mode's pooled verdict buffers must never alias live
// decisions: the contents a sink observes for sequence i are exactly the
// sequential reference's, even though buffers recycle constantly. The
// sink poisons every buffer after reading it, so any slot the pipeline
// fails to overwrite before reuse — or hands to two in-flight decisions
// at once — surfaces as a mismatch. Run under -race in CI (make race),
// which additionally catches a racing writer mid-read.
func TestShardedPooledVerdictsNotAliased(t *testing.T) {
	events := generate(t, 2)

	type ref struct {
		alerts  [2]bool
		scores  [2]float64
		reasons [2]detector.ReasonList
	}
	want := make([]ref, 0, len(events))
	seq := newPipe(t, Sequential)
	err := seq.Run(context.Background(), sourceFrom(events), func(d Decision) error {
		want = append(want, ref{
			alerts:  [2]bool{d.Verdicts[0].Alert, d.Verdicts[1].Alert},
			scores:  [2]float64{d.Verdicts[0].Score, d.Verdicts[1].Score},
			reasons: [2]detector.ReasonList{d.Verdicts[0].Reasons, d.Verdicts[1].Reasons},
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	p, err := New(Config{
		Factories:  pairFactories(),
		Reputation: iprep.BuildFeed(),
		Mode:       Sharded,
		Shards:     4,
		Buffer:     64,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	err = p.Run(context.Background(), sourceFrom(events), func(d Decision) error {
		w := &want[d.Req.Seq]
		for i := 0; i < 2; i++ {
			if d.Verdicts[i].Alert != w.alerts[i] || d.Verdicts[i].Score != w.scores[i] ||
				d.Verdicts[i].Reasons != w.reasons[i] {
				t.Fatalf("seq %d verdict %d diverged from sequential reference (buffer aliasing?): got %+v",
					d.Req.Seq, i, d.Verdicts[i])
			}
		}
		// Poison the pooled buffers: if the pipeline recycles a slot
		// without fully overwriting it, a later decision reads this.
		for i := range d.Verdicts {
			d.Verdicts[i] = detector.Verdict{Score: -1, Alert: true, Reasons: detector.ReasonsOf("poisoned")}
		}
		d.Req.Seq = ^uint64(0)
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(events) {
		t.Fatalf("sharded run delivered %d of %d decisions", n, len(events))
	}
}
