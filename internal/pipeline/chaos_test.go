package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/faultinject"
	"divscrape/internal/iprep"
	"divscrape/internal/shard"
	"divscrape/internal/trace"
	"divscrape/internal/workload"
)

// faulty is a test-only side: it alerts on every third request of the
// stream and panics on request at.
type faulty struct{ at uint64 }

func (d *faulty) Name() string { return "faulty" }
func (d *faulty) Reset()       {}
func (d *faulty) Inspect(req *detector.Request) (v detector.Verdict) {
	d.InspectInto(req, &v)
	return v
}
func (d *faulty) InspectInto(req *detector.Request, out *detector.Verdict) {
	if req.Seq == d.at {
		panic(fmt.Sprintf("faulty bug at %d", req.Seq))
	}
	*out = detector.Verdict{Alert: req.Seq%3 == 0, Score: 0.5}
}

// withFaulty is the paper's pair plus a faulty side panicking on at.
func withFaulty(at uint64) []detector.Factory {
	return append(pairFactories(), func() (detector.Detector, error) { return &faulty{at: at}, nil })
}

// judged is one decision as the chaos tests compare it.
type judged struct {
	verdicts [3]detector.Verdict
	degraded bool
}

// runEvery drives events through p in the named delivery and returns the
// decisions by sequence number, with what the run returned.
func runEvery(t *testing.T, p *Pipeline, events []workload.Event, relaxed bool) ([]*judged, error) {
	t.Helper()
	byShard := make([][]judged, p.Shards())
	seqs := make([][]uint64, p.Shards())
	sinks := make([]Sink, p.Shards())
	for i := range sinks {
		sinks[i] = func(d Decision) error {
			j := judged{degraded: d.Outcome.Degraded}
			copy(j.verdicts[:], d.Verdicts)
			byShard[i], seqs[i] = append(byShard[i], j), append(seqs[i], d.Req.Seq)
			return nil
		}
	}
	var err error
	if relaxed {
		err = p.RunRelaxed(context.Background(), sourceFrom(events), sinks)
	} else {
		err = p.Run(context.Background(), sourceFrom(events), sinks[0])
	}
	out := make([]*judged, len(events))
	for i := range byShard {
		for k, seq := range seqs[i] {
			if out[seq] != nil {
				t.Fatalf("request %d decided twice", seq)
			}
			out[seq] = &byShard[i][k]
		}
	}
	for seq, d := range out {
		if d == nil {
			t.Fatalf("request %d never decided", seq)
		}
	}
	return out, err
}

// A side that panics on one request costs that side on that shard until
// its backoff has passed, and nothing else: every host shape finishes the
// stream with one decision per request, names the panic in its error, and
// the other sides judge byte for byte as in a run without it.
func TestChaosPanickingSideFinishesTheRun(t *testing.T) {
	events := generate(t, 2)
	at := uint64(len(events) / 3)
	ref, err := New(Config{Factories: withFaulty(1 << 62), Reputation: iprep.BuildFeed()})
	if err != nil {
		t.Fatal(err)
	}
	want, err := runEvery(t, ref, events, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode    Mode
		shards  int
		relaxed bool
	}{{Sequential, 1, false}, {Sharded, 1, false}, {Sharded, 1, true}, {Sharded, 3, false}, {Sharded, 3, true}} {
		t.Run(fmt.Sprintf("mode%d/shards%d/relaxed=%v", c.mode, c.shards, c.relaxed), func(t *testing.T) {
			p, err := New(Config{Factories: withFaulty(at), Reputation: iprep.BuildFeed(), Mode: c.mode, Shards: c.shards})
			if err != nil {
				t.Fatal(err)
			}
			got, err := runEvery(t, p, events, c.relaxed)
			failure, panics := SplitPanics(err)
			var pe *shard.PanicError
			if failure != nil || len(panics) != 1 || !errors.As(err, &pe) {
				t.Fatalf("run returned %v: failure %v, %d panics", err, failure, len(panics))
			}
			home, _ := shard.OfKey(events[at].Entry.RemoteAddr, c.shards)
			wantPE := shard.PanicError{Side: "faulty", Shard: home, Seq: at, Value: fmt.Sprintf("faulty bug at %d", at)}
			if *pe != wantPE {
				t.Fatalf("panic reported as %+v, want %+v", *pe, wantPE)
			}
			if d := got[at]; !d.degraded || d.verdicts[2] != (detector.Verdict{}) {
				t.Fatalf("the panicking request: %+v", d)
			}
			degraded := 0
			for seq := range got {
				if got[seq].verdicts[0] != want[seq].verdicts[0] || got[seq].verdicts[1] != want[seq].verdicts[1] {
					t.Fatalf("request %d: the pair judged %+v, without the panic %+v", seq, got[seq].verdicts[:2], want[seq].verdicts[:2])
				}
				if got[seq].degraded {
					degraded++
				}
			}
			// The side sat out for its backoff of event time on its shard,
			// then came back.
			if panics, restores := p.Quarantines(2); panics != 1 || restores != 1 || degraded < 2 || degraded > len(got)/10 {
				t.Fatalf("%d panics, %d restores, %d degraded requests of %d", panics, restores, degraded, len(got))
			}
			if panics, _ := p.Quarantines(0); panics != 0 {
				t.Fatalf("sentinel counted %d panics", panics)
			}
		})
	}
}

// The flight record of the request a side panicked on marks that side
// skipped, in stream order as well, and the client's timeline shows the
// quarantine that degraded it.
func TestChaosFlightRecordShowsTheQuarantine(t *testing.T) {
	events := generate(t, 1)
	at := uint64(len(events) / 2)
	client := events[at].Entry.RemoteAddr
	for _, mode := range []Mode{Sequential, Sharded} {
		var recs []trace.Record
		tr := trace.New(trace.Config{Detectors: []string{"sentinel", "arcane", "faulty"}, Shards: 3,
			Recorder: trace.RecorderConfig{Clients: []string{client}, Sink: func(r trace.Record) { recs = append(recs, r) }}})
		p, err := New(Config{Factories: withFaulty(at), Reputation: iprep.BuildFeed(), Mode: mode, Shards: 3, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(context.Background(), sourceFrom(events), func(Decision) error { return nil }); !errors.As(err, new(*shard.PanicError)) {
			t.Fatalf("mode %d: run returned %v", mode, err)
		}
		i := slices.IndexFunc(recs, func(r trace.Record) bool { return r.Seq == at })
		if i < 0 || !recs[i].Detectors[2].Skipped || recs[i].Detectors[0].Skipped {
			t.Fatalf("mode %d: record of the panicking request %+v", mode, recs[max(i, 0)])
		}
		tl := tr.Recorder().Explain(client)
		if len(tl.Events) == 0 || tl.Events[0].Kind != "quarantine" || tl.Events[0].Detector != "faulty" {
			t.Fatalf("mode %d: timeline events %+v", mode, tl.Events)
		}
	}
}

// A side still quarantined when the pipeline is reset comes back with the
// reset: the counters a watchdog reads say so.
func TestChaosResetRestoresAQuarantinedSide(t *testing.T) {
	events := generate(t, 1)[:1]
	events = append(events, events[0]) // inside the backoff
	p, err := New(Config{Factories: withFaulty(0), Reputation: iprep.BuildFeed()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runEvery(t, p, events, false); !errors.As(err, new(*shard.PanicError)) {
		t.Fatalf("run returned %v", err)
	}
	if panics, restores := p.Quarantines(2); panics != 1 || restores != 0 {
		t.Fatalf("after the run: %d panics, %d restores", panics, restores)
	}
	p.ResetDetectors()
	if panics, restores := p.Quarantines(2); panics != 1 || restores != 1 {
		t.Fatalf("after the reset: %d panics, %d restores", panics, restores)
	}
}

// A panic past the failure plane — here a sink's — reaches the caller of
// Run or RunRelaxed on the caller's own goroutine, whichever goroutine
// raised it, and the pipeline serves the next run.
func TestChaosSinkPanicReachesTheCaller(t *testing.T) {
	events := generate(t, 1)
	for _, c := range []struct {
		mode    Mode
		relaxed bool
	}{{Sequential, false}, {Sharded, false}, {Sharded, true}} {
		t.Run(fmt.Sprintf("mode%d/relaxed=%v", c.mode, c.relaxed), func(t *testing.T) {
			p, err := New(Config{Factories: pairFactories(), Reputation: iprep.BuildFeed(), Mode: c.mode, Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			var calls atomic.Int64
			sink := func(Decision) error {
				if calls.Add(1) == 3 {
					panic("sink bug")
				}
				return nil
			}
			run := func() error {
				if c.relaxed {
					return p.RunRelaxed(context.Background(), sourceFrom(events), []Sink{sink, sink, sink})
				}
				return p.Run(context.Background(), sourceFrom(events), sink)
			}
			caught := func() (v any) {
				defer func() { v = recover() }()
				t.Errorf("the run returned %v", run())
				return nil
			}()
			if caught != "sink bug" {
				t.Fatalf("recovered %v, want the sink's panic", caught)
			}
			if err := run(); err != nil {
				t.Fatalf("the next run: %v", err)
			}
		})
	}
}

// A checkpoint taken while a side is still quarantined carries that side
// as its restore would leave it — cold, in the pipeline, which keeps no
// restore point — never the instance that panicked: a pipeline resumed
// from it decides every later request as a run whose side restored at
// that point, at one shard or three.
func TestChaosCheckpointMidQuarantineResumesAsRestored(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	events := generate(t, 2)
	at := len(events) / 3
	// From cut on every request is past the side's backoff, the shard's
	// default 30 s of event time, so the run left alone restores the side
	// on its shard's first request.
	cut := at + 1
	for events[cut].Entry.Time.Before(events[at].Entry.Time.Add(30 * time.Second)) {
		cut++
	}
	for _, c := range []struct {
		mode   Mode
		shards int
	}{{Sequential, 1}, {Sharded, 3}} {
		build := func() *Pipeline {
			p, err := New(Config{Factories: pairFactories(), Reputation: iprep.BuildFeed(), Mode: c.mode, Shards: c.shards})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		// quarantined runs the stream to cut, arcane panicking on request
		// at: alone in its run, so at any shard count it is that request.
		quarantined := func() *Pipeline {
			p := build()
			span(t, p, events, 0, at)
			faultinject.Enable("shard.inspect.arcane", faultinject.Fault{Panic: "arcane bug", Times: 1})
			span(t, p, events, at, at+1)
			span(t, p, events, at+1, cut)
			if panics, restores := p.Quarantines(1); panics != 1 || restores != 0 {
				t.Fatalf("mode %d: %d panics, %d restores before the cut", c.mode, panics, restores)
			}
			return p
		}
		ref := quarantined()
		want := span(t, ref, events, cut, len(events))
		if _, restores := ref.Quarantines(1); restores != 1 {
			t.Fatalf("mode %d: the reference restored %d times", c.mode, restores)
		}
		resumed := build()
		resume(t, resumed, checkpoint(t, quarantined()))
		if got := span(t, resumed, events, cut, len(events)); !bytes.Equal(got, want) {
			t.Fatalf("mode %d shards %d: resumed from a mid-quarantine checkpoint, the pipeline decides otherwise than a run that restored at the cut",
				c.mode, c.shards)
		}
	}
}

// span streams events[from:to] through p and returns the decisions as
// bytes, degradation included; a side's panic is not a failure of the run.
func span(t *testing.T, p *Pipeline, events []workload.Event, from, to int) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := p.Run(context.Background(), sourceFrom(events[from:to]), func(d Decision) error {
		decisionBytes(&buf, d)
		if d.Outcome.Degraded {
			buf.WriteByte('!')
		}
		return nil
	})
	if failure, _ := SplitPanics(err); failure != nil {
		t.Fatal(failure)
	}
	return buf.Bytes()
}
