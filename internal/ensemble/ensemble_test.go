package ensemble

import (
	"math"
	"testing"
	"testing/quick"

	"divscrape/internal/detector"
	"divscrape/internal/mitigate"
)

func v(alert bool, score float64, reasons ...string) detector.Verdict {
	return detector.Verdict{Alert: alert, Score: score, Reasons: detector.ReasonsOf(reasons...)}
}

func TestKOutOfNDecisions(t *testing.T) {
	verdicts := []detector.Verdict{
		v(true, 0.9, "a"),
		v(false, 0.1),
		v(true, 0.5, "c"),
	}
	tests := []struct {
		k    int
		want bool
	}{
		{1, true},
		{2, true},
		{3, false},
	}
	for _, tt := range tests {
		got := KOutOfN{K: tt.k}.Decide(verdicts)
		if got.Alert != tt.want {
			t.Errorf("K=%d alert = %v, want %v", tt.k, got.Alert, tt.want)
		}
	}
}

func TestKOutOfNFusedScoreIsKthLargest(t *testing.T) {
	verdicts := []detector.Verdict{
		v(false, 0.3), v(false, 0.7), v(false, 0.5),
	}
	tests := []struct {
		k    int
		want float64
	}{
		{1, 0.7}, {2, 0.5}, {3, 0.3},
		{9, 0.3}, // k clamped to n
	}
	for _, tt := range tests {
		got := KOutOfN{K: tt.k}.Decide(verdicts)
		if got.Score != tt.want {
			t.Errorf("K=%d fused score = %g, want %g", tt.k, got.Score, tt.want)
		}
	}
}

func TestKOutOfNEdgeCases(t *testing.T) {
	if got := (KOutOfN{K: 0}).Decide([]detector.Verdict{v(true, 1)}); got.Alert {
		t.Error("K=0 should never alert")
	}
	if got := (KOutOfN{K: 1}).Decide(nil); got.Alert {
		t.Error("no verdicts should never alert")
	}
	// Reasons come only from alerting verdicts, and only on alert.
	d := KOutOfN{K: 2}.Decide([]detector.Verdict{v(true, 0.9, "x"), v(false, 0.1, "hidden")})
	if d.Alert || d.Reasons.Len() != 0 {
		t.Errorf("non-alert decision carries reasons: %+v", d)
	}
	if (KOutOfN{K: 2}).Name() == "" {
		t.Error("empty name")
	}
}

// Property: k-out-of-n alerts are monotone decreasing in K, and the fused
// score is monotone decreasing in K.
func TestKOutOfNMonotoneProperty(t *testing.T) {
	f := func(alerts []bool, scores []float64) bool {
		n := len(alerts)
		if len(scores) < n {
			n = len(scores)
		}
		if n == 0 {
			return true
		}
		verdicts := make([]detector.Verdict, n)
		for i := 0; i < n; i++ {
			s := scores[i]
			if s < 0 {
				s = -s
			}
			for s > 1 {
				s /= 10
			}
			verdicts[i] = v(alerts[i], s)
		}
		prevAlert := true
		prevScore := 2.0
		for k := 1; k <= n; k++ {
			d := KOutOfN{K: k}.Decide(verdicts)
			if d.Alert && !prevAlert {
				return false // alert set grew with stricter K
			}
			if d.Score > prevScore {
				return false
			}
			prevAlert = d.Alert
			prevScore = d.Score
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWeighted(t *testing.T) {
	w := Weighted{Weights: []float64{3, 1}, Threshold: 0.5}
	// (3*0.8 + 1*0.0) / 4 = 0.6 >= 0.5
	d := w.Decide([]detector.Verdict{v(true, 0.8, "hot"), v(false, 0)})
	if !d.Alert || math.Abs(d.Score-0.6) > 1e-12 {
		t.Errorf("weighted = %+v, want alert at 0.6", d)
	}
	// (3*0.2 + 1*1.0) / 4 = 0.4 < 0.5
	d2 := w.Decide([]detector.Verdict{v(false, 0.2), v(true, 1.0)})
	if d2.Alert {
		t.Errorf("weighted alerted at %g", d2.Score)
	}
	if w.Name() != "weighted" {
		t.Errorf("Name = %q", w.Name())
	}
	if (Weighted{Label: "custom"}).Name() != "custom" {
		t.Error("custom label ignored")
	}
	// Extra verdicts beyond the weight vector are ignored.
	d3 := Weighted{Weights: []float64{1}, Threshold: 0.5}.Decide(
		[]detector.Verdict{v(false, 0.9), v(true, 0.0)})
	if !d3.Alert {
		t.Error("verdicts beyond weights should be ignored")
	}
	// Zero weights: score 0, no panic.
	d4 := Weighted{Threshold: 0.5}.Decide([]detector.Verdict{v(true, 1)})
	if d4.Score != 0 {
		t.Errorf("zero-weight score = %g", d4.Score)
	}
}

func TestAssess(t *testing.T) {
	alert := func(s float64) detector.Verdict { return detector.Verdict{Alert: true, Score: s} }
	quiet := func(s float64) detector.Verdict { return detector.Verdict{Score: s} }
	for _, tc := range []struct {
		name     string
		verdicts []detector.Verdict
		want     mitigate.Assessment
	}{
		{"no detectors", nil, mitigate.Assessment{}},
		{"pair, neither", []detector.Verdict{quiet(0.25), quiet(0.25)}, mitigate.Assessment{Score: 0.25}},
		{"pair, one", []detector.Verdict{alert(1), quiet(0)}, mitigate.Assessment{Alerted: true, Score: 0.5}},
		{"pair, both", []detector.Verdict{alert(1), alert(0.5)}, mitigate.Assessment{Alerted: true, Confirmed: true, Score: 0.75}},
		{"triple, one", []detector.Verdict{quiet(0), alert(0.75), quiet(0)}, mitigate.Assessment{Alerted: true, Score: 0.25}},
		{"triple, two", []detector.Verdict{alert(0.75), quiet(0), alert(0.75)}, mitigate.Assessment{Alerted: true, Confirmed: true, Score: 0.5}},
		// A side that sat out is its zero verdict: it still counts in the
		// quorum and the mean.
		{"triple, two with one out", []detector.Verdict{alert(0.75), alert(0.75), {}}, mitigate.Assessment{Alerted: true, Confirmed: true, Score: 0.5}},
		{"four, two is no majority", []detector.Verdict{alert(1), alert(1), quiet(0), quiet(0)}, mitigate.Assessment{Alerted: true, Score: 0.5}},
	} {
		if got := Assess(tc.verdicts); got != tc.want {
			t.Errorf("%s: Assess = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
