package clockwork

import (
	"math"
	"testing"
	"time"
)

var base = time.Date(2018, 3, 11, 0, 0, 0, 0, time.UTC)

func TestClock(t *testing.T) {
	c := NewClock(base)
	if !c.Now().Equal(base) {
		t.Error("clock not at start")
	}
	c.Advance(time.Minute)
	if !c.Now().Equal(base.Add(time.Minute)) {
		t.Error("Advance wrong")
	}
	// Time never goes backwards.
	c.Advance(-time.Hour)
	if !c.Now().Equal(base.Add(time.Minute)) {
		t.Error("negative Advance moved the clock")
	}
	c.AdvanceTo(base) // earlier: ignored
	if !c.Now().Equal(base.Add(time.Minute)) {
		t.Error("AdvanceTo moved backwards")
	}
	c.AdvanceTo(base.Add(time.Hour))
	if !c.Now().Equal(base.Add(time.Hour)) {
		t.Error("AdvanceTo failed")
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewRand(1, 2)
	b := NewRand(1, 2)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identical seeds diverged")
		}
	}
	c := NewRand(1, 3)
	same := true
	a2 := NewRand(1, 2)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different streams produced identical sequences")
	}
}

func TestExpMean(t *testing.T) {
	r := NewRand(42, 0)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Exp(time.Second)
	}
	mean := float64(sum) / n / float64(time.Second)
	if math.Abs(mean-1) > 0.05 {
		t.Errorf("Exp mean = %g s, want ~1", mean)
	}
	if r.Exp(0) != 0 || r.Exp(-time.Second) != 0 {
		t.Error("non-positive mean should yield 0")
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRand(42, 1)
	const n = 20001
	samples := make([]time.Duration, n)
	for i := range samples {
		samples[i] = r.LogNormal(8*time.Second, 1.0)
	}
	// Median of samples should approximate the parameter.
	count := 0
	for _, s := range samples {
		if s < 8*time.Second {
			count++
		}
	}
	frac := float64(count) / n
	if math.Abs(frac-0.5) > 0.03 {
		t.Errorf("fraction below median = %g, want ~0.5", frac)
	}
	if r.LogNormal(0, 1) != 0 {
		t.Error("non-positive median should yield 0")
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(42, 2)
	for i := 0; i < 1000; i++ {
		d := r.Jitter(time.Second, 0.25)
		if d < 750*time.Millisecond || d > 1250*time.Millisecond {
			t.Fatalf("Jitter out of bounds: %v", d)
		}
	}
	// Factor clamping.
	if d := r.Jitter(time.Second, -1); d != time.Second {
		t.Errorf("negative factor not clamped: %v", d)
	}
	for i := 0; i < 100; i++ {
		if d := r.Jitter(time.Second, 5); d < 0 || d > 2*time.Second {
			t.Fatalf("factor > 1 not clamped: %v", d)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRand(42, 3)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("Bool(0.3) hit rate = %g", frac)
	}
}

func TestWeightedChoice(t *testing.T) {
	r := NewRand(42, 4)
	counts := [3]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[r.WeightedChoice([]float64{1, 2, 1})]++
	}
	if math.Abs(float64(counts[1])/n-0.5) > 0.03 {
		t.Errorf("middle weight selected %d of %d", counts[1], n)
	}
	// Degenerate weight vectors.
	if r.WeightedChoice([]float64{0, 0}) != 0 {
		t.Error("all-zero weights should return 0")
	}
	if got := r.WeightedChoice([]float64{-1, 0, 5}); got != 2 {
		t.Errorf("negative weights not skipped: %d", got)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(42, 5)
	z := NewZipf(r, 1.3, 1000)
	counts := make(map[uint64]int)
	const n = 20000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate rank 100 heavily.
	if counts[0] < 10*counts[100]+1 {
		t.Errorf("Zipf not skewed: rank0=%d rank100=%d", counts[0], counts[100])
	}
	// Degenerate parameters are clamped, not fatal.
	_ = NewZipf(r, 0.5, 0)
}

func TestDiurnalShape(t *testing.T) {
	trough := Diurnal(time.Date(2018, 3, 11, 4, 0, 0, 0, time.UTC), 0.2, 1.0)
	peak := Diurnal(time.Date(2018, 3, 11, 16, 0, 0, 0, time.UTC), 0.2, 1.0)
	if math.Abs(trough-0.2) > 1e-9 {
		t.Errorf("trough = %g, want 0.2", trough)
	}
	if math.Abs(peak-1.0) > 1e-9 {
		t.Errorf("peak = %g, want 1.0", peak)
	}
	// All hours stay within bounds, inverted bounds are swapped.
	for h := 0; h < 24; h++ {
		v := Diurnal(time.Date(2018, 3, 11, h, 30, 0, 0, time.UTC), 1.0, 0.2)
		if v < 0.2-1e-9 || v > 1.0+1e-9 {
			t.Fatalf("hour %d: %g out of [0.2, 1.0]", h, v)
		}
	}
}

func TestPermIntN(t *testing.T) {
	r := NewRand(42, 7)
	for i := 0; i < 100; i++ {
		if v := r.IntN(7); v < 0 || v >= 7 {
			t.Fatalf("IntN out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}
