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
	if w.Variance() != 0 || w.SampleVariance() != 0 {
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

func TestMinMax(t *testing.T) {
	var m MinMax
	if m.Min() != 0 || m.Max() != 0 || m.Range() != 0 {
		t.Error("empty MinMax should report zeros")
	}
	for _, x := range []float64{3, -2, 8, 0} {
		m.Add(x)
	}
	if m.Min() != -2 || m.Max() != 8 || m.Range() != 10 {
		t.Errorf("min/max/range = %g/%g/%g, want -2/8/10", m.Min(), m.Max(), m.Range())
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Warm() {
		t.Error("fresh EWMA should not be warm")
	}
	if got := e.Add(10); got != 10 {
		t.Errorf("first Add = %g, want 10 (seeding)", got)
	}
	if got := e.Add(20); got != 15 {
		t.Errorf("second Add = %g, want 15", got)
	}
	e.Reset()
	if e.Warm() || e.Value() != 0 {
		t.Error("Reset did not clear")
	}

	// Alpha clamping.
	if NewEWMA(-1) == nil || NewEWMA(2) == nil {
		t.Error("constructor should clamp, not fail")
	}
	clamped := NewEWMA(5)
	clamped.Add(1)
	if got := clamped.Add(3); got != 3 {
		t.Errorf("alpha clamped to 1 should track instantly, got %g", got)
	}
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

func TestP2QuantileAccuracy(t *testing.T) {
	// Deterministic pseudo-random stream (LCG) so the test is stable.
	lcg := uint64(12345)
	next := func() float64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return float64(lcg>>11) / float64(1<<53)
	}
	for _, p := range []float64{0.25, 0.5, 0.75, 0.95} {
		q := NewP2Quantile(p)
		xs := make([]float64, 0, 20000)
		for i := 0; i < 20000; i++ {
			x := next()
			q.Add(x)
			xs = append(xs, x)
		}
		exact := ExactQuantile(xs, p)
		if !almost(q.Value(), exact, 0.02) {
			t.Errorf("P2(%g) = %g, exact %g", p, q.Value(), exact)
		}
	}
}

func TestP2QuantileSmallStreams(t *testing.T) {
	q := NewP2Quantile(0.5)
	if q.Value() != 0 {
		t.Error("empty estimator should report 0")
	}
	for _, x := range []float64{5, 1, 3} {
		q.Add(x)
	}
	// With fewer than 5 samples it falls back to the exact quantile.
	if got := q.Value(); got != 3 {
		t.Errorf("median of {1,3,5} = %g, want 3", got)
	}
	if q.N() != 3 {
		t.Errorf("N = %d", q.N())
	}
	if q.Quantile() != 0.5 {
		t.Errorf("Quantile() = %g", q.Quantile())
	}
}

func TestP2QuantileClampsP(t *testing.T) {
	lo := NewP2Quantile(-1)
	hi := NewP2Quantile(2)
	if lo.Quantile() <= 0 || hi.Quantile() >= 1 {
		t.Errorf("p clamping failed: %g %g", lo.Quantile(), hi.Quantile())
	}
}

func TestExactQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {-1, 10}, {2, 40},
	}
	for _, tt := range tests {
		if got := ExactQuantile(xs, tt.p); !almost(got, tt.want, 1e-9) {
			t.Errorf("ExactQuantile(p=%g) = %g, want %g", tt.p, got, tt.want)
		}
	}
	if ExactQuantile(nil, 0.5) != 0 {
		t.Error("empty slice should report 0")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.5, 1, 1.5, 3, 10, 2} {
		h.Add(x)
	}
	// Buckets: <1, <2, <5, >=5 (upper bounds exclusive).
	want := []uint64{1, 2, 2, 1}
	got := h.Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Total() != 6 {
		t.Errorf("total = %d", h.Total())
	}
	if s := h.Sketch(10); s == "" {
		t.Error("Sketch returned empty string")
	}
	h.Reset()
	if h.Total() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := NewHistogram([]float64{2, 1}); err == nil {
		t.Error("descending bounds accepted")
	}
	if _, err := NewLinearHistogram(0, 10, 0); err == nil {
		t.Error("zero buckets accepted")
	}
	if _, err := NewLinearHistogram(5, 5, 3); err == nil {
		t.Error("empty range accepted")
	}
	h, err := NewLinearHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(h.Bounds()); got != 5 {
		t.Errorf("linear histogram has %d bounds, want 5", got)
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

func TestEntropyOfCounts(t *testing.T) {
	if EntropyOfCounts(nil) != 0 {
		t.Error("empty counts")
	}
	if EntropyOfCounts([]uint64{7}) != 0 {
		t.Error("single category should have zero entropy")
	}
	if got := EntropyOfCounts([]uint64{1, 1}); !almost(got, 1, 1e-9) {
		t.Errorf("two equal categories = %g bits, want 1", got)
	}
	// Zero-count categories contribute nothing.
	if got := EntropyOfCounts([]uint64{1, 1, 0, 0}); !almost(got, 1, 1e-9) {
		t.Errorf("with empty categories = %g bits, want 1", got)
	}
}

// Entropy property: concentration never exceeds the uniform bound.
func TestEntropyBoundProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		counts := make([]uint64, 0, len(raw))
		for _, c := range raw {
			if c%50 > 0 {
				counts = append(counts, uint64(c%50))
			}
		}
		h := EntropyOfCounts(counts)
		if len(counts) < 2 {
			return h == 0
		}
		return h >= 0 && h <= math.Log2(float64(len(counts)))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
