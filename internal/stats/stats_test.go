package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestWelfordAgainstTwoPass(t *testing.T) {
	xs := []float64{4, 7, 13, 16, 1, 1, 2, 99, -5, 0.5}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var variance float64
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs))

	if !almost(w.Mean(), mean, 1e-9) {
		t.Errorf("mean = %g, want %g", w.Mean(), mean)
	}
	if !almost(w.Variance(), variance, 1e-9) {
		t.Errorf("variance = %g, want %g", w.Variance(), variance)
	}
	if w.N() != uint64(len(xs)) {
		t.Errorf("n = %d, want %d", w.N(), len(xs))
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.CV() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	w.Add(5)
	if w.Variance() != 0 {
		t.Error("single observation has zero variance")
	}
	w.Reset()
	if w.N() != 0 {
		t.Error("Reset did not clear")
	}

	// Constant zero stream: CV must stay 0, not Inf.
	for i := 0; i < 5; i++ {
		w.Add(0)
	}
	if w.CV() != 0 {
		t.Errorf("CV of constant zeros = %g, want 0", w.CV())
	}
	// Zero mean with spread: CV is +Inf by convention.
	w.Reset()
	w.Add(-1)
	w.Add(1)
	if !math.IsInf(w.CV(), 1) {
		t.Errorf("CV with zero mean and spread = %g, want +Inf", w.CV())
	}
}

// TestWelfordMergeProperty: merging two accumulators equals accumulating
// the concatenation.
func TestWelfordMergeProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		var w1, w2, all Welford
		for _, x := range a {
			x = clampFinite(x)
			w1.Add(x)
			all.Add(x)
		}
		for _, x := range b {
			x = clampFinite(x)
			w2.Add(x)
			all.Add(x)
		}
		w1.Merge(w2)
		if w1.N() != all.N() {
			return false
		}
		if all.N() == 0 {
			return true
		}
		scale := math.Max(1, math.Abs(all.Mean()))
		return almost(w1.Mean(), all.Mean(), 1e-6*scale) &&
			almost(w1.Variance(), all.Variance(), 1e-4*math.Max(1, all.Variance()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func clampFinite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	// Keep magnitudes sane so float error bounds hold.
	return math.Mod(x, 1e6)
}

func TestDecayRateHalfLife(t *testing.T) {
	h, d := NewHalfLife(time.Minute), NewDecayRate()
	base := time.Date(2018, 3, 11, 0, 0, 0, 0, time.UTC)
	// Feed a steady 2 req/s for 5 minutes; the estimate should converge
	// near 2.
	now := base
	for i := 0; i < 600; i++ {
		now = now.Add(500 * time.Millisecond)
		d.Observe(&h, now)
	}
	got := d.Rate(&h, now)
	if !almost(got, 2, 0.3) {
		t.Errorf("steady 2/s estimated as %g", got)
	}
	// After one idle half-life the estimate halves.
	later := d.Rate(&h, now.Add(time.Minute))
	if !almost(later, got/2, 0.05) {
		t.Errorf("after one half-life: %g, want about %g", later, got/2)
	}
	// Rate() is read-only.
	if d.Rate(&h, now.Add(time.Minute)) != later {
		t.Error("Rate mutated state")
	}
	d.Reset()
	if d.Rate(&h, now) != 0 {
		t.Error("Reset did not clear")
	}
}

func TestCountSetEntropy(t *testing.T) {
	var s CountSet
	if s.Distinct() != 0 || s.Total() != 0 {
		t.Error("empty set should report zeros")
	}
	for _, c := range []string{"a", "b", "c", "d", "a"} {
		s.Add(c)
	}
	if s.Distinct() != 4 || s.Total() != 5 {
		t.Errorf("counting wrong: %d distinct of %d", s.Distinct(), s.Total())
	}
	s.Reset()
	if s.Total() != 0 || s.Distinct() != 0 {
		t.Error("Reset did not clear")
	}
}

// The first category lives in the struct and only a second one builds a
// map: one-agent addresses — nearly all of them — allocate nothing, and a
// Reset record keeps neither the map nor the old string alive.
func TestCountSetFirstCategoryInline(t *testing.T) {
	var s CountSet
	ua := "Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0"
	if n := testing.AllocsPerRun(100, func() { s.Add(ua) }); n != 0 {
		t.Errorf("Add of the one category allocates %.1f/op", n)
	}
	if s.more != nil || s.Distinct() != 1 || s.Total() != 101 {
		t.Fatalf("one category: map %v, distinct %d, total %d", s.more, s.Distinct(), s.Total())
	}
	s.Add("curl/7.58.0")
	s.Add(ua)
	if s.Distinct() != 2 || s.Total() != 103 || s.firstCount != 102 || s.more["curl/7.58.0"] != 1 {
		t.Fatalf("two categories: %+v", s)
	}
	// An empty string is a category like any other, also as the first.
	var e CountSet
	e.Add("")
	e.Add("")
	e.Add("x")
	if e.Distinct() != 2 || e.Total() != 3 {
		t.Errorf("empty-string category: distinct %d total %d", e.Distinct(), e.Total())
	}
	s.Reset()
	if s.first != "" || s.firstCount != 0 || s.more != nil || s.total != 0 {
		t.Errorf("Reset left %+v: a recycled record would pin the old User-Agent", s)
	}
}
