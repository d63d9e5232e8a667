package anomaly

import (
	"math"
	"math/rand"
	"testing"
)

// ScoreVec is the hot-path scorer and Score the readable map-keyed one;
// they must agree bit for bit on the sum (same summation order) and on the
// explanation order, including the name tie-break between equal weighted
// shares and the skipping of zero, negative and NaN inputs.
func TestScoreVecMatchesScore(t *testing.T) {
	// Equal weights and scales in pairs, so equal raw values produce equal
	// weighted shares and the order falls to the name tie-break; names are
	// deliberately not in declaration order.
	features := []Feature{
		{Name: "mike", Weight: 2, Scale: 1},
		{Name: "alpha", Weight: 2, Scale: 1},
		{Name: "zulu", Weight: 1.5, Scale: 0.4},
		{Name: "bravo", Weight: 1.5, Scale: 0.4},
		{Name: "kilo", Weight: 0, Scale: 1},
		{Name: "echo", Weight: 3, Scale: 2.5},
		{Name: "delta", Weight: 0.7, Scale: 0.05},
	}
	c, err := NewComposite(features)
	if err != nil {
		t.Fatal(err)
	}
	// A small palette makes ties, skips and NaNs frequent.
	palette := []float64{0, 0, -1, math.NaN(), 0.3, 0.3, 1, 2.5, 40, 1e300}
	rng := rand.New(rand.NewSource(12))
	raw := make([]float64, len(c.Features()))
	scratch := make([]Contribution, 0, len(c.Features()))
	for trial := 0; trial < 5000; trial++ {
		byName := make(map[string]float64, len(raw))
		for i := range raw {
			raw[i] = palette[rng.Intn(len(palette))]
			if rng.Intn(4) == 0 {
				raw[i] = rng.ExpFloat64()
			}
			byName[features[i].Name] = raw[i]
		}
		wantSum, want := c.Score(byName)
		gotSum, got := c.ScoreVec(raw, scratch)
		Rank(got)
		if math.Float64bits(gotSum) != math.Float64bits(wantSum) {
			t.Fatalf("trial %d raw %v: ScoreVec sum %x, Score sum %x", trial, raw,
				math.Float64bits(gotSum), math.Float64bits(wantSum))
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d raw %v: %d contributions, Score has %d", trial, raw, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name ||
				math.Float64bits(got[i].Raw) != math.Float64bits(want[i].Raw) ||
				math.Float64bits(got[i].Weighted) != math.Float64bits(want[i].Weighted) {
				t.Fatalf("trial %d raw %v: contribution %d = %+v, Score has %+v", trial, raw, i, got[i], want[i])
			}
		}
		for _, k := range got {
			if !(k.Raw > 0) {
				t.Fatalf("trial %d: non-positive or NaN input %v contributed", trial, k.Raw)
			}
		}
	}
}

// Scoring and ranking reuse the caller's scratch: no allocation per request.
func TestScoreVecZeroAllocs(t *testing.T) {
	c, err := NewComposite([]Feature{
		{Name: "a", Weight: 3, Scale: 1},
		{Name: "b", Weight: 1, Scale: 1},
		{Name: "c", Weight: 2, Scale: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	raw := []float64{0.2, 7, 0.9}
	scratch := make([]Contribution, 0, len(c.Features()))
	allocs := testing.AllocsPerRun(200, func() {
		_, contribs := c.ScoreVec(raw, scratch)
		Rank(contribs)
	})
	if allocs != 0 {
		t.Errorf("ScoreVec+Rank allocates %.1f/op, want 0", allocs)
	}
}
