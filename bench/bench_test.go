package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload, untraced and traced, at the tiny scale
// on the second committed seed: every declared metric must come out
// exactly once with a finite value, the correctness checks must pass,
// and nothing may be left in the scratch directory.
func TestSmoke(t *testing.T) {
	work := t.TempDir()
	for _, d := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runOnce(d, scales["tiny"], 2, 0.2, traced, work)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", d.name, traced, err)
			}
			want := len(e2eSpecs)
			if traced {
				want = len(layerSpecs)
			}
			if len(rep.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", d.name, traced, len(rep.Metrics), want)
			}
			for name, v := range rep.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q", d.name, name)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", d.name, name, v.Value)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", d.name, name, v.Value)
				}
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", d.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
		}
		if _, err := os.Stat(filepath.Join(work, "spans-"+d.name+".jsonl")); err != nil {
			t.Errorf("%s: spans were not written: %v", d.name, err)
		}
	}
	left, err := os.ReadDir(filepath.Join(work, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("scratch directory still holds %d entries", len(left))
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and the tables in
// metrics.go from drifting apart: the file is this program's -spec
// output.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json differs from `bench -spec`; regenerate it")
	}
	seen := make(map[string]bool)
	for _, s := range e2eSpecs {
		if seen[s.Name] || !nameRE.MatchString(s.Name) {
			t.Errorf("end-to-end metric name %q is repeated or malformed", s.Name)
		}
		seen[s.Name] = true
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v", s.Name, s.Bound)
		}
	}
	for _, s := range layerSpecs {
		if seen[s.Name] || !nameRE.MatchString(s.Name) {
			t.Errorf("per-layer metric name %q is repeated or malformed", s.Name)
		}
		seen[s.Name] = true
	}
	for _, w := range workloads {
		if why := workloadWhy[w.name]; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.name, len(why))
		}
	}
}

// TestDeterminism: the same seed gives byte-identical inputs, another
// seed gives other inputs, for every traffic mix.
func TestDeterminism(t *testing.T) {
	sc := scales["tiny"]
	for name, tr := range map[string]traffic{"paper": sc.paper, "wide": sc.wide, "guard": sc.guard} {
		hash := func(seed uint64) string {
			in, err := generate(tr, seed, "")
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			return in.sha256
		}
		one, again, two := hash(1), hash(1), hash(2)
		if one != again {
			t.Errorf("%s: seed 1 generated %s then %s", name, one, again)
		}
		if one == two {
			t.Errorf("%s: seeds 1 and 2 generated the same bytes", name)
		}
	}
}

// TestQuartiles pins the cut points to what Python's
// statistics.quantiles(values, n=4) returns for the same values.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		vs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 9, 3, 7, 11, 13}, 3, 7, 11},
	} {
		q1, q2, q3 := quartiles(c.vs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.vs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSpanSelfTimes(t *testing.T) {
	l := &spanLog{spans: []span{
		{Name: "other", Start: 0, End: 5, Parent: -1},
		{Name: "pass", Start: 10, End: 110, Parent: -1},
		{Name: "slab", Start: 10, End: 60, Parent: 1},
		{Name: "read", Start: 12, End: 32, Parent: 2},
		{Name: "inspect", Start: 32, End: 58, Parent: 2},
		{Name: "slab", Start: 60, End: 108, Parent: 1},
		{Name: "read", Start: 60, End: 100, Parent: 5},
	}}
	got := l.selfTimes(1)
	want := map[string]int64{"pass": 2, "slab": 4 + 8, "read": 20 + 40, "inspect": 26}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if _, ok := got["other"]; ok {
		t.Error("a span outside the subtree was counted")
	}
}

// TestCompare: a regression beyond the bound or a rise in failures fails
// the comparison; a change inside the bound does not; a record whose own
// spread exceeds the bound reads unresolved.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate []float64, failed uint64) string {
		w := &workloadRecord{Attempted: 1000, Failed: failed, EndToEnd: map[string]*series{
			"setup_s":            newSeries([]float64{1, 1, 1}),
			"req_per_s":          newSeries(rate),
			"cpu_ns_per_req":     newSeries([]float64{100, 100, 100}),
			"allocs_per_req":     newSeries([]float64{1, 1, 1}),
			"heap_bytes_per_req": newSeries([]float64{10, 10, 10}),
		}}
		rec := &record{Workloads: map[string]*workloadRecord{"replay-paper": w}}
		path := filepath.Join(dir, name)
		if err := writeRecord(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", []float64{1000, 1001, 1002}, 0)
	for _, c := range []struct {
		name    string
		rate    []float64
		failed  uint64
		wantErr bool
		wantOut string
	}{
		{"same", []float64{990, 991, 992}, 0, false, "ok"},
		{"slower", []float64{700, 701, 702}, 0, true, "REGRESSION"},
		{"failing", []float64{1000, 1001, 1002}, 1, true, "REGRESSION"},
		{"noisy", []float64{500, 1000, 1500}, 0, false, "unresolved"},
	} {
		var out bytes.Buffer
		err := compareRecords(&out, base, write(c.name+".json", c.rate, c.failed))
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, want error %v", c.name, err, c.wantErr)
		}
		if !strings.Contains(out.String(), c.wantOut) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.wantOut, out.String())
		}
	}
}
