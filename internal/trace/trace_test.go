package trace

import (
	"strings"
	"testing"
	"time"
)

// A manual clock: each call advances by step, so span durations are
// exact and assertions on histogram sums are deterministic.
func stepClock(start time.Time, step time.Duration) func() time.Time {
	t := start
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	ts := tr.Now()
	if !ts.IsZero() {
		t.Error("nil tracer Now() != zero time")
	}
	ts = tr.Lap(StageParse, ts)
	ts = tr.LapDetector(0, ts)
	_ = ts
	tr.RingDepth(0, 5)
	tr.MergePending(3)
	tr.MergeStall()
	if tr.MergeStalls() != 0 {
		t.Error("nil tracer MergeStalls() != 0")
	}
	if tr.StageStats() != nil {
		t.Error("nil tracer StageStats() != nil")
	}
	if tr.Registry() != nil {
		t.Error("nil tracer Registry() != nil")
	}
	if tr.Recorder() != nil {
		t.Error("nil tracer Recorder() != nil")
	}
}

// The disabled plane's contract: the span points compiled into the hot
// paths must cost zero allocations when the tracer is nil.
func TestNilTracerSpanPathAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		ts := tr.Now()
		ts = tr.Lap(StageParse, ts)
		ts = tr.Lap(StageEnrich, ts)
		ts = tr.LapDetector(0, ts)
		ts = tr.LapDetector(1, ts)
		tr.Lap(StageSink, ts)
		tr.RingDepth(0, 1)
		tr.MergeStall()
		if tr.Recorder().Sample() != SampleNone {
			t.Fatal("nil recorder sampled")
		}
	})
	if allocs != 0 {
		t.Errorf("nil-tracer span path allocates %.1f/op, want 0", allocs)
	}
}

func TestLapRecordsSpans(t *testing.T) {
	start := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	tr := New(Config{
		Detectors: []string{"sentinel", "arcane"},
		Now:       stepClock(start, time.Microsecond),
	})
	ts := tr.Now()
	ts = tr.Lap(StageParse, ts)
	ts = tr.LapDetector(0, ts)
	ts = tr.LapDetector(1, ts)
	tr.Lap(StageSink, ts)

	want := map[string]struct {
		count uint64
		sum   float64
	}{
		"parse":           {1, 1e-6},
		"detect-sentinel": {1, 1e-6},
		"detect-arcane":   {1, 1e-6},
		"sink":            {1, 1e-6},
		"enrich":          {0, 0},
		"ensemble":        {0, 0},
		"merge":           {0, 0},
	}
	for _, st := range tr.StageStats() {
		w, ok := want[st.Name()]
		if !ok {
			t.Errorf("unexpected stage %q", st.Name())
			continue
		}
		if st.Count != w.count {
			t.Errorf("%s count = %d, want %d", st.Name(), st.Count, w.count)
		}
		if diff := st.Sum - w.sum; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s sum = %g, want %g", st.Name(), st.Sum, w.sum)
		}
		delete(want, st.Name())
	}
	if len(want) != 0 {
		t.Errorf("stages missing from StageStats: %v", want)
	}
}

// A zero prev anchors without recording — the idiom that lets a span
// chain start mid-path without a spurious from-the-epoch observation.
func TestLapZeroPrevRecordsNothing(t *testing.T) {
	tr := New(Config{Now: stepClock(time.Unix(0, 0), time.Millisecond)})
	tr.Lap(StageParse, time.Time{})
	for _, st := range tr.StageStats() {
		if st.Count != 0 {
			t.Errorf("stage %s recorded %d spans from a zero prev", st.Name(), st.Count)
		}
	}
}

func TestShardInstruments(t *testing.T) {
	tr := New(Config{Shards: 2})
	tr.RingDepth(0, 7)
	tr.RingDepth(1, 1)
	tr.MergePending(3)
	tr.MergeStall()
	tr.MergeStall()
	if got := tr.MergeStalls(); got != 2 {
		t.Errorf("MergeStalls = %d, want 2", got)
	}
	// Out-of-range shards must be ignored, not panic.
	tr.RingDepth(9, 1)

	var scrape strings.Builder
	_ = tr.Registry().WritePrometheus(&scrape)
	page := scrape.String()
	for _, want := range []string{
		`divscrape_shard_ring_depth{shard="0"} 7`,
		`divscrape_shard_ring_depth{shard="1"} 1`,
		"divscrape_merge_pending_decisions 3",
		"divscrape_merge_stalls_total 2",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("registry page missing %q:\n%s", want, page)
		}
	}
}

// Relaxed tracers keep the SPSC ring occupancy gauges and leave the merge
// instruments out: the families would be dead weight (per-shard delivery
// has no emitter), and frozen-at-zero metrics on a live pipeline's page
// read as a stuck emitter, not an absent one.
func TestRelaxedTracerInstruments(t *testing.T) {
	tr := New(Config{Shards: 2, Relaxed: true})
	tr.RingDepth(0, 5)
	tr.RingDepth(1, 2)
	// Out-of-range shards must be ignored, not panic.
	tr.RingDepth(9, 1)
	// Merge setters degrade to no-ops under per-shard delivery.
	tr.MergePending(3)
	tr.MergeStall()
	if tr.MergeStalls() != 0 {
		t.Error("relaxed tracer counted a merge stall")
	}
	var scrape strings.Builder
	_ = tr.Registry().WritePrometheus(&scrape)
	page := scrape.String()
	for _, want := range []string{
		`divscrape_shard_ring_depth{shard="0"} 5`,
		`divscrape_shard_ring_depth{shard="1"} 2`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("relaxed registry page missing %q:\n%s", want, page)
		}
	}
	if strings.Contains(page, "divscrape_merge_") {
		t.Errorf("relaxed registry page exposes the emitter's families:\n%s", page)
	}
}

// Unsharded tracers (httpguard, sequential replays) must not expose
// shard gauges, and the merge setters must degrade to no-ops.
func TestUnshardedTracerHasNoShardInstruments(t *testing.T) {
	tr := New(Config{})
	tr.RingDepth(0, 5)
	tr.MergePending(3)
	tr.MergeStall()
	if tr.MergeStalls() != 0 {
		t.Error("unsharded tracer counted a merge stall")
	}
	var scrape strings.Builder
	_ = tr.Registry().WritePrometheus(&scrape)
	page := scrape.String()
	for _, absent := range []string{"divscrape_shard_", "divscrape_merge_"} {
		if strings.Contains(page, absent) {
			t.Errorf("unsharded registry page contains %q:\n%s", absent, page)
		}
	}
}
