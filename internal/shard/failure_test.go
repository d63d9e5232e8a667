package shard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/faultinject"
	"divscrape/internal/iprep"
	"divscrape/internal/statecodec"
	"divscrape/internal/trace"
)

// A side that panics sits out that request only: the sides after it still
// inspect it, and the shard reports the failure once.
func TestJudgeResumesAfterThePanickingSide(t *testing.T) {
	for bad := 0; bad < 3; bad++ {
		dets := []detector.Detector{alarm{name: "a"}, alarm{name: "b"}, alarm{name: "c"}}
		dets[bad] = alarm{name: dets[bad].Name(), faulty: true}
		s, err := New(factoriesOf(dets...), nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var events []*PanicError
		s.Index, s.OnHealth = 4, func(i int, _ time.Time, p *PanicError) {
			if i != bad {
				t.Errorf("side %d panicked, side %d reported", bad, i)
			}
			events = append(events, p)
		}
		req := request(detector.NewEnricher(nil), "10.0.0.1", "GET", "/", base)
		req.Seq = 17
		var out Outcome
		s.Judge(&req, &out)
		for i, v := range s.Verdicts() {
			if skip := i == bad; s.Skipped()[i] != skip || v.Alert == skip {
				t.Fatalf("side %d panicked: side %d verdict %+v skipped %v", bad, i, v, s.Skipped()[i])
			}
		}
		if !out.Degraded || len(events) != 1 || events[0] == nil {
			t.Fatalf("side %d panicked: outcome %+v, events %+v", bad, out, events)
		}
		want := PanicError{Side: dets[bad].Name(), Shard: 4, Seq: 17, Value: dets[bad].Name() + " bug"}
		var pe *PanicError
		if !errors.As(fmt.Errorf("run: %w", events[0]), &pe) || *pe != want {
			t.Fatalf("side %d panicked: reported %+v, want %+v", bad, pe, want)
		}
	}
}

// The whole life of a quarantine on the paper's pair, through the side's
// fault point: quarantine with the panic's reason, sitting out until the
// backoff has passed, a warm restore from the last refresh, a backoff that
// doubles on every repeat up to 32× the base, and Reset forgetting it all.
func TestChaosQuarantineLifecycle(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	const backoff = 10 * time.Second
	s := realShard(t, nil, 0)
	var events []*PanicError // nil: a restore
	s.Backoff, s.OnHealth = backoff, func(i int, _ time.Time, p *PanicError) {
		if i != 1 {
			t.Errorf("side %d reported", i)
		}
		events = append(events, p)
	}
	s.Tracer = trace.New(trace.Config{Detectors: s.Names})
	now, enr := base, detector.NewEnricher(nil)
	judge := func(ip string) Outcome {
		t.Helper()
		now = now.Add(time.Second)
		req := request(enr, ip, "GET", "/product/1", now)
		var out Outcome
		s.Judge(&req, &out)
		return out
	}
	for i := 0; i < 20; i++ {
		judge(fmt.Sprintf("10.0.0.%d", i))
	}
	s.RefreshLastGood()
	if !s.Health(1).HasSnapshot {
		t.Fatal("no restore point after a refresh")
	}

	faultinject.Enable("shard.inspect.arcane", faultinject.Fault{Panic: "arcane bug", Times: 1})
	if out := judge("10.0.0.1"); !out.Degraded || !s.Skipped()[1] || s.Verdicts()[1] != (detector.Verdict{}) {
		t.Fatalf("panicking request: outcome %+v, arcane verdict %+v", out, s.Verdicts()[1])
	}
	h := s.Health(1)
	if !h.Quarantined || h.Reason != "arcane bug" || !h.RetryAt.Equal(now.Add(backoff)) {
		t.Fatalf("health after the panic %+v", h)
	}
	if out := judge("10.0.0.2"); !out.Degraded || len(events) != 1 {
		t.Fatalf("inside the backoff: outcome %+v, events %+v", out, events)
	}
	now = now.Add(backoff)
	if out := judge("10.0.0.3"); out.Degraded || s.Health(1) != (Health{HasSnapshot: true}) {
		t.Fatalf("after the backoff: outcome %+v, health %+v", out, s.Health(1))
	}
	if len(events) != 2 || events[0] == nil || events[1] != nil {
		t.Fatalf("events %+v", events)
	}
	if n := s.Dets[1].(interface{ Sessions() int }).Sessions(); n < 20 {
		t.Errorf("restored arcane holds %d sessions, want the 20 of its restore point", n)
	}
	tl := s.Tracer.Recorder().Explain("10.0.0.1")
	if len(tl.Events) != 2 || tl.Events[0].Detector != "arcane" || tl.Events[0].Detail != "arcane bug" {
		t.Errorf("provenance events %+v", tl.Events)
	}

	// A side that panics on every request: each restore is re-quarantined
	// on the spot, its backoff doubling to the cap — from the base again,
	// since surviving to a refresh retired the last one.
	s.RefreshLastGood()
	faultinject.Enable("shard.inspect.arcane", faultinject.Fault{Panic: "persistent bug"})
	for i, factor := range []time.Duration{1, 2, 4, 8, 16, 32, 32} {
		judge("10.0.0.4")
		if got := s.Health(1).RetryAt.Sub(now); got != factor*backoff {
			t.Fatalf("panic %d: backoff %v, want %v", i+1, got, factor*backoff)
		}
		now = s.Health(1).RetryAt
	}
	s.Reset()
	if h := s.Health(1); h != (Health{}) {
		t.Fatalf("health after Reset %+v", h)
	}
}

// oneByte is a side whose snapshot is a single byte: a fresh writer of it
// is already four times its payload.
type oneByte struct{}

func (oneByte) Name() string                                         { return "one-byte" }
func (oneByte) Inspect(*detector.Request) detector.Verdict           { return detector.Verdict{} }
func (oneByte) InspectInto(_ *detector.Request, v *detector.Verdict) { *v = detector.Verdict{} }
func (oneByte) Reset()                                               {}
func (oneByte) SnapshotInto(w *statecodec.Writer)                    { w.Uint8(7) }
func (oneByte) RestoreFrom(r *statecodec.Reader) error               { r.Uint8(); return r.Err() }

// A restore buffer that outgrew its payload is replaced once, even when
// the replacement is oversized too.
func TestRefreshLastGoodReplacesAnOversizedBufferOnce(t *testing.T) {
	s, err := New(factoriesOf(oneByte{}), nil, nil, iprep.BuildFeed())
	if err != nil {
		t.Fatal(err)
	}
	flood := statecodec.NewWriter()
	for i := 0; i < 4096; i++ {
		flood.Uint8(0)
	}
	s.health[0].snapW = flood
	s.RefreshLastGood()
	h := s.health[0]
	if !h.HasSnapshot || h.snapW == flood || string(h.snapW.Bytes()) != "\x07" {
		t.Fatalf("after a refresh: has snapshot %v, kept the flood's writer %v, payload %q", h.HasSnapshot, h.snapW == flood, h.snapW.Bytes())
	}
	s.RefreshLastGood()
	if !s.health[0].HasSnapshot || string(s.health[0].snapW.Bytes()) != "\x07" {
		t.Fatalf("a second refresh left payload %q", s.health[0].snapW.Bytes())
	}
}
