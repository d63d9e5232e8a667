package anomaly

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCompositeValidation(t *testing.T) {
	tests := []struct {
		name     string
		features []Feature
	}{
		{"empty", nil},
		{"unnamed", []Feature{{Weight: 1, Scale: 1}}},
		{"duplicate", []Feature{
			{Name: "x", Weight: 1, Scale: 1},
			{Name: "x", Weight: 1, Scale: 1},
		}},
		{"negative weight", []Feature{{Name: "x", Weight: -1, Scale: 1}}},
		{"zero scale", []Feature{{Name: "x", Weight: 1, Scale: 0}}},
		{"all zero weights", []Feature{{Name: "x", Weight: 0, Scale: 1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewComposite(tt.features); err == nil {
				t.Errorf("NewComposite(%v) succeeded, want error", tt.features)
			}
		})
	}
}

func TestCompositeScoring(t *testing.T) {
	c, err := NewComposite([]Feature{
		{Name: "a", Weight: 3, Scale: 1},
		{Name: "b", Weight: 1, Scale: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Only feature a, at its half-strength point: 3/4 * 0.5 = 0.375.
	score, contribs := c.Score(map[string]float64{"a": 1})
	if math.Abs(score-0.375) > 1e-9 {
		t.Errorf("score = %g, want 0.375", score)
	}
	if len(contribs) != 1 || contribs[0].Name != "a" {
		t.Errorf("contribs = %+v", contribs)
	}

	// Contributions are sorted by weighted share.
	score2, contribs2 := c.Score(map[string]float64{"a": 0.1, "b": 100})
	if len(contribs2) != 2 {
		t.Fatalf("want 2 contributions, got %d", len(contribs2))
	}
	if contribs2[0].Weighted < contribs2[1].Weighted {
		t.Error("contributions not sorted descending")
	}
	if score2 <= 0 {
		t.Errorf("score2 = %g", score2)
	}

	// Unknown, zero, negative and NaN features are ignored.
	score3, contribs3 := c.Score(map[string]float64{
		"zzz": 5, "a": 0, "b": -1,
	})
	if score3 != 0 || len(contribs3) != 0 {
		t.Errorf("score3 = %g with %d contribs, want all ignored", score3, len(contribs3))
	}
	score4, _ := c.Score(map[string]float64{"a": math.NaN()})
	if score4 != 0 {
		t.Errorf("NaN input scored %g", score4)
	}

	if got := c.Features(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Features() = %v", got)
	}
}

// Composite property: scores are always in [0, 1) and monotone in each
// feature's raw value.
func TestCompositeBoundedMonotoneProperty(t *testing.T) {
	c, err := NewComposite([]Feature{
		{Name: "x", Weight: 2, Scale: 0.5},
		{Name: "y", Weight: 1, Scale: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := func(x, y, dx float64) bool {
		x = math.Abs(math.Mod(x, 1e6))
		y = math.Abs(math.Mod(y, 1e6))
		dx = math.Abs(math.Mod(dx, 1e3))
		s1, _ := c.Score(map[string]float64{"x": x, "y": y})
		s2, _ := c.Score(map[string]float64{"x": x + dx, "y": y})
		return s1 >= 0 && s1 < 1 && s2+1e-12 >= s1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
