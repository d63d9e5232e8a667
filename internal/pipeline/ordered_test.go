package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/workload"
)

// echoDetector is a stateless detector whose verdict names the request it
// judged, so a verdict delivered with the wrong request cannot pass for
// the right one. With yields set it hands the processor away that many
// times per request — a stall with no clock in it — which keeps its shard
// the one the emitter waits on while the others fill up behind it.
type echoDetector struct{ yields int }

func (d *echoDetector) Name() string { return "echo" }
func (d *echoDetector) Reset()       {}
func (d *echoDetector) Inspect(req *detector.Request) detector.Verdict {
	var v detector.Verdict
	d.InspectInto(req, &v)
	return v
}
func (d *echoDetector) InspectInto(req *detector.Request, out *detector.Verdict) {
	for i := 0; i < d.yields; i++ {
		runtime.Gosched()
	}
	*out = detector.Verdict{Alert: req.Seq%7 == 0, Score: float64(req.Seq%1024) / 1024}
}

// echoFactories is the calibrated pair plus an echo detector; the echo
// instance built for shard stall (factories run once per shard, in shard
// order) is the stalling one. Pass -1 for none.
func echoFactories(stall int) []detector.Factory {
	built := 0
	return append(pairFactories(), func() (detector.Detector, error) {
		d := &echoDetector{}
		if built == stall {
			d.yields = 64
		}
		built++
		return d, nil
	})
}

// Ordered delivery under hostile schedules: rings and FIFOs so small that
// every hand-off parks, one client owning nine lines in ten (one shard's
// FIFO is nearly always the emitter's next stop while the others idle),
// and one shard far slower than its peers (they fill their FIFOs and
// block behind it). In every case Run's Decision stream must be
// byte-equal to Sequential's — and the test must end: a routing record
// and FIFOs that could wedge show up here as the package's timeout.
func TestOrderedDeliveryHostileSchedules(t *testing.T) {
	// Short streams: with rings this small a few thousand requests are
	// thousands of parks, and the suite is meant to be run many times over
	// (-race -count=10) rather than once over a long stream.
	mix := generate(t, 2)[:2000]
	hot := make([]workload.Event, len(mix))
	for i := range mix {
		hot[i] = mix[i]
		if i%10 != 0 {
			hot[i].Entry.RemoteAddr = "10.9.9.9"
		}
	}
	streams := []struct {
		name   string
		events []workload.Event
		stall  bool
	}{
		{"mix", mix, false},
		{"hot-client", hot, false},
		{"stalled-shard", mix[:len(mix)/2], true},
	}
	for _, st := range streams {
		ref, err := New(Config{Factories: echoFactories(-1), Reputation: iprep.BuildFeed()})
		if err != nil {
			t.Fatal(err)
		}
		want := runCollect(t, ref, st.events, 0, len(st.events))
		for _, shards := range []int{1, 3, 8} {
			for _, buffer := range []int{1, 2, 64} {
				t.Run(fmt.Sprintf("%s/shards=%d/buffer=%d", st.name, shards, buffer), func(t *testing.T) {
					stall := -1
					if st.stall {
						stall = shards - 1
					}
					p, err := New(Config{
						Factories:  echoFactories(stall),
						Reputation: iprep.BuildFeed(),
						Mode:       Sharded,
						Shards:     shards,
						Buffer:     buffer,
					})
					if err != nil {
						t.Fatal(err)
					}
					if got := runCollect(t, p, st.events, 0, len(st.events)); !bytes.Equal(got, want) {
						t.Fatalf("decision stream differs from Sequential's (%d vs %d bytes)", len(got), len(want))
					}
				})
			}
		}
	}
}

// An aborted ordered run strands work in the routing record and the shard
// FIFOs: the producer and the workers run ahead of the emitter. The next
// run must start from none of it. The aborting sink call waits until
// something provably is stranded, so the test cannot pass vacuously; a
// sink error at decision 50 must also mean exactly 50 sink calls.
func TestOrderedReuseAfterAbort(t *testing.T) {
	events := generate(t, 2)
	want := runCollect(t, newPipe(t, Sequential), events, 0, len(events))
	boom := errors.New("boom")

	for _, abort := range []string{"sink error", "context cancel"} {
		t.Run(abort, func(t *testing.T) {
			p, err := New(Config{
				Factories:  pairFactories(),
				Reputation: iprep.BuildFeed(),
				Mode:       Sharded,
				Shards:     3,
				Buffer:     8,
			})
			if err != nil {
				t.Fatal(err)
			}
			stranded := func() int {
				n := p.ordered.route.Len()
				for _, f := range p.ordered.fifos {
					n += f.Len()
				}
				return n
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			calls := 0
			err = p.Run(ctx, sourceFrom(events), func(Decision) error {
				if calls++; calls < 50 {
					return nil
				}
				for stranded() == 0 {
					runtime.Gosched()
				}
				if abort == "sink error" {
					return boom
				}
				cancel()
				return nil
			})
			if abort == "sink error" {
				if !errors.Is(err, boom) {
					t.Errorf("error = %v, want boom", err)
				}
				if calls != 50 {
					t.Errorf("sink called %d times, want exactly 50", calls)
				}
			} else if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("error = %v, want nil or context.Canceled", err)
			}
			if calls >= len(events) {
				t.Fatalf("the abort did not stop the run: %d sink calls for %d events", calls, len(events))
			}

			p.ResetDetectors()
			if got := runCollect(t, p, events, 0, len(events)); !bytes.Equal(got, want) {
				t.Fatalf("run after the abort differs from Sequential's (%d vs %d bytes)", len(got), len(want))
			}
			if n := stranded(); n != 0 {
				t.Errorf("a completed run left %d entries in the routing record and FIFOs", n)
			}
		})
	}
}
