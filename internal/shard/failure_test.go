package shard

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/faultinject"
	"divscrape/internal/iprep"
	"divscrape/internal/statecodec"
	"divscrape/internal/trace"
	"divscrape/internal/trajectory"
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

// A restore point is exactly its packed bytes: once a flood has been
// evicted and a refresh has run, each point's capacity is within an eighth
// of its length, and it unpacks and restores to the side's snapshot, byte
// for byte.
func TestRestorePointsAreExactSizeAndRestoreByteForByte(t *testing.T) {
	const window = 10 * time.Minute
	s := realShard(t, nil, window)
	enr := detector.NewEnricher(nil)
	judge := func(ip string, n int, at time.Time) {
		req := request(enr, ip, "GET", "/product/"+strconv.Itoa(n), at)
		var out Outcome
		s.Judge(&req, &out)
	}
	for i := 0; i < 5000; i++ {
		judge(fmt.Sprintf("172.16.%d.%d", i>>8, i&255), i, base.Add(time.Duration(i)*time.Millisecond))
	}
	s.RefreshLastGood()
	flood := make([]int, len(s.health))
	for i := range s.health {
		flood[i] = len(s.RestorePoint(i))
	}
	later := base.Add(time.Hour)
	for c := 0; c < 64; c++ {
		judge("10.0.0."+strconv.Itoa(c), c, later)
	}
	if s.Sweep(later) < 5000 {
		t.Fatal("the window left the flood")
	}
	s.RefreshLastGood()
	for i, h := range s.health {
		p := s.RestorePoint(i)
		if !h.HasSnapshot || len(p) == 0 || 8*len(p) > flood[i] || cap(p) > len(p)+len(p)/8 {
			t.Fatalf("%s: restore point len %d cap %d after the flood's %d", s.Names[i], len(p), cap(p), flood[i])
		}
		want := statecodec.NewWriter()
		if err := detector.SnapshotRole(want, s.Dets[i:i+1]); err != nil {
			t.Fatal(err)
		}
		if raw, err := statecodec.Unpack(nil, p); err != nil || !bytes.Equal(raw, want.Bytes()) {
			t.Fatalf("%s: restore point unpacks to %d bytes (%v), the side snapshots %d", s.Names[i], len(raw), err, want.Len())
		}
		d, warm, err := s.fresh(i)
		got := statecodec.NewWriter()
		if err != nil || !warm || detector.SnapshotRole(got, []detector.Detector{d}) != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: restored instance (warm %v, %v) snapshots other bytes", s.Names[i], warm, err)
		}
	}
}

// A restore point that does not unpack is a failed restore: the side comes
// back cold and forgets the point.
func TestChaosUnpackErrorRestoresCold(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := realShard(t, nil, 0)
	enr := detector.NewEnricher(nil)
	judge := func(ip string, at time.Time) {
		req := request(enr, ip, "GET", "/product/1", at)
		var out Outcome
		s.Judge(&req, &out)
	}
	for i := 0; i < 20; i++ {
		judge(fmt.Sprintf("10.0.0.%d", i), base.Add(time.Duration(i)*time.Second))
	}
	s.RefreshLastGood()
	s.health[1].point = s.health[1].point[:len(s.health[1].point)-1]
	faultinject.Enable("shard.inspect.arcane", faultinject.Fault{Panic: "arcane bug", Times: 1})
	judge("10.0.0.1", base.Add(time.Minute))
	judge("10.0.0.1", base.Add(time.Hour)) // past the backoff
	if h := s.Health(1); h.Quarantined || h.HasSnapshot || s.RestorePoint(1) != nil {
		t.Fatalf("health after a restore from a damaged point %+v", h)
	}
	if n := s.Dets[1].(interface{ Sessions() int }).Sessions(); n != 1 {
		t.Fatalf("arcane came back with %d sessions, want only the restoring request's", n)
	}
}

// BenchmarkRefreshLastGood times one refresh of a shard of three sides
// warmed with 2 000 clients, and reports the sides' snapshot bytes (raw-B)
// and what their restore points hold (packed-B).
func BenchmarkRefreshLastGood(b *testing.B) {
	factories := append(pairFactories(), func() (detector.Detector, error) { return trajectory.New(trajectory.Config{}) })
	s, err := New(factories, nil, nil, iprep.BuildFeed())
	if err != nil {
		b.Fatal(err)
	}
	enr := detector.NewEnricher(nil)
	for i := 0; i < 8000; i++ {
		c := i % 2000
		req := request(enr, fmt.Sprintf("10.%d.%d.%d", c>>16, c>>8&255, c&255), "GET",
			"/product/"+strconv.Itoa(i%301), base.Add(time.Duration(i)*100*time.Millisecond))
		var out Outcome
		s.Judge(&req, &out)
	}
	raw := statecodec.NewWriter()
	for i := range s.Dets {
		if err := detector.SnapshotRole(raw, s.Dets[i:i+1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		s.RefreshLastGood()
	}
	packed := 0
	for i := range s.Dets {
		packed += len(s.RestorePoint(i))
	}
	b.ReportMetric(float64(raw.Len()), "raw-B")
	b.ReportMetric(float64(packed), "packed-B")
}
