package stream

import (
	"slices"
	"testing"
	"time"

	"divscrape/internal/clockwork"
)

// recorder captures the cutoffs a sweep hands to its hooks.
type recorder struct {
	cutoffs []time.Time
	per     int
}

func (r *recorder) EvictBefore(cutoff time.Time) int {
	r.cutoffs = append(r.cutoffs, cutoff)
	return r.per
}

func TestSweeperObserveCadence(t *testing.T) {
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	sw, err := NewSweeper(time.Hour, 10*time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{per: 3}
	sw.Register("store", rec)

	if n := sw.Observe(base); n != 0 {
		t.Errorf("anchor observation swept (%d)", n)
	}
	if n := sw.Observe(base.Add(5 * time.Minute)); n != 0 {
		t.Errorf("early observation swept (%d)", n)
	}
	if n := sw.Observe(base.Add(10 * time.Minute)); n != 3 {
		t.Errorf("due observation evicted %d, want 3", n)
	}
	if len(rec.cutoffs) != 1 {
		t.Fatalf("%d sweeps ran, want 1", len(rec.cutoffs))
	}
	if want := base.Add(10*time.Minute - time.Hour); !rec.cutoffs[0].Equal(want) {
		t.Errorf("cutoff = %v, want now − window = %v", rec.cutoffs[0], want)
	}
	// Zero and regressing observations are inert.
	if n := sw.Observe(time.Time{}); n != 0 {
		t.Errorf("zero time swept (%d)", n)
	}
	if n := sw.Observe(base); n != 0 {
		t.Errorf("regressing time swept (%d)", n)
	}

	sweeps, evicted := sw.Stats()
	if sweeps != 1 || evicted != 3 {
		t.Errorf("stats = %d sweeps, %d evicted; want 1, 3", sweeps, evicted)
	}
}

// TestFarFutureObservationDoesNotStopSweeps mirrors the pipeline's
// TestFarFutureLineDoesNotStopSweeps: after one observation stamped 2200,
// the first 2018 one sweeps and re-anchors, and the cadence then runs as
// in the plain stream.
func TestFarFutureObservationDoesNotStopSweeps(t *testing.T) {
	start := time.Date(2018, 3, 11, 12, 0, 0, 0, time.UTC)
	replay := func(far bool) (sweeps uint64, cutoffs []time.Time) {
		sw, err := NewSweeper(time.Hour, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{}
		sw.Register("store", rec)
		if far {
			sw.Observe(time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC))
		}
		for i := 0; i < 5000; i++ {
			sw.Observe(start.Add(time.Duration(i) * time.Second))
		}
		sweeps, _ = sw.Stats()
		return sweeps, rec.cutoffs
	}
	sweeps, plain := replay(false)
	if sweeps == 0 {
		t.Fatal("the plain stream never swept")
	}
	far, cutoffs := replay(true)
	if far != sweeps+1 {
		t.Errorf("after an observation stamped 2200 the stream swept %d times, want %d", far, sweeps+1)
	}
	if want := start.Add(-time.Hour); len(cutoffs) == 0 || !cutoffs[0].Equal(want) {
		t.Errorf("re-anchoring sweep cut off at %v, want the 2018 line's now − window %v", cutoffs, want)
	}
	if len(cutoffs) == len(plain)+1 && !slices.EqualFunc(cutoffs[1:], plain, time.Time.Equal) {
		t.Errorf("sweeps after re-anchoring cut off at %v, want the plain stream's %v", cutoffs[1:], plain)
	}
}

func TestSweeperTickWithSimulatedClock(t *testing.T) {
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	clk := clockwork.NewClock(base)
	sw, err := NewSweeper(2*time.Hour, 0, clk) // every defaults to window/4
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{per: 1}
	sw.Register("engine", rec)
	sw.Register("sessions", &recorder{per: 2})

	sw.Tick() // anchors
	clk.Advance(29 * time.Minute)
	if n := sw.Tick(); n != 0 {
		t.Errorf("tick before cadence swept (%d)", n)
	}
	clk.Advance(time.Minute)
	if n := sw.Tick(); n != 3 {
		t.Errorf("tick at cadence evicted %d, want 3 (both hooks)", n)
	}
	if want := base.Add(30*time.Minute - 2*time.Hour); !rec.cutoffs[0].Equal(want) {
		t.Errorf("cutoff = %v, want %v", rec.cutoffs[0], want)
	}
}

func TestSweeperValidation(t *testing.T) {
	if _, err := NewSweeper(0, time.Minute, nil); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewSweeper(-time.Hour, time.Minute, nil); err == nil {
		t.Error("negative window accepted")
	}
	sw, err := NewSweeper(2*time.Second, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sw.every != time.Second {
		t.Errorf("cadence floor = %v, want 1s", sw.every)
	}
	if sw.Window() != 2*time.Second {
		t.Errorf("Window() = %v", sw.Window())
	}
}
