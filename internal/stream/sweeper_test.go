package stream

import (
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
