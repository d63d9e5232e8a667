package evaluate

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestConfusionMetricsHandChecked(t *testing.T) {
	// 80 TP, 20 FN, 90 TN, 10 FP.
	c := Confusion{TP: 80, FN: 20, TN: 90, FP: 10}
	tests := []struct {
		name string
		got  float64
		want float64
	}{
		{"sensitivity", c.Sensitivity(), 0.8},
		{"specificity", c.Specificity(), 0.9},
		{"precision", c.Precision(), 80.0 / 90.0},
		{"fpr", c.FPR(), 0.1},
	}
	for _, tt := range tests {
		if !almost(tt.got, tt.want, 1e-12) {
			t.Errorf("%s = %g, want %g", tt.name, tt.got, tt.want)
		}
	}
	wantF1 := 2 * (80.0 / 90.0) * 0.8 / ((80.0 / 90.0) + 0.8)
	if !almost(c.F1(), wantF1, 1e-12) {
		t.Errorf("f1 = %g, want %g", c.F1(), wantF1)
	}
	mcc := (80.0*90 - 10.0*20) / math.Sqrt(90.0*100*100*110)
	if !almost(c.MCC(), mcc, 1e-12) {
		t.Errorf("mcc = %g, want %g", c.MCC(), mcc)
	}
}

func TestConfusionDegenerate(t *testing.T) {
	var c Confusion
	// All metrics are defined (zero) on an empty matrix.
	for name, got := range map[string]float64{
		"sens": c.Sensitivity(), "spec": c.Specificity(),
		"prec": c.Precision(), "f1": c.F1(), "mcc": c.MCC(),
	} {
		if math.IsNaN(got) || got != 0 {
			t.Errorf("%s on empty matrix = %g", name, got)
		}
	}
	c.Add(true, true)
	c.Add(false, false)
	if c.TP != 1 || c.TN != 1 || c.Total() != 2 {
		t.Errorf("Add bookkeeping wrong: %+v", c)
	}
}

func TestROCKnownCurve(t *testing.T) {
	r := NewROC(8)
	// Perfectly separable scores.
	for _, s := range []float64{0.9, 0.8, 0.85, 0.95} {
		r.Add(s, true)
	}
	for _, s := range []float64{0.1, 0.2, 0.15, 0.05} {
		r.Add(s, false)
	}
	if auc := r.AUC(); !almost(auc, 1.0, 1e-12) {
		t.Errorf("separable AUC = %g, want 1", auc)
	}
	thr, conf := r.BestYouden()
	if conf.FP != 0 || conf.FN != 0 {
		t.Errorf("best operating point imperfect: t=%g %+v", thr, conf)
	}

	// Perfectly anti-separated scores give AUC 0.
	r2 := NewROC(4)
	r2.Add(0.1, true)
	r2.Add(0.9, false)
	if auc := r2.AUC(); !almost(auc, 0, 1e-12) {
		t.Errorf("anti-separable AUC = %g, want 0", auc)
	}

	if NewROC(-5).Len() != 0 {
		t.Error("negative size hint mishandled")
	}
	if (&ROC{}).Curve() != nil {
		t.Error("empty ROC should have nil curve")
	}
}

func TestROCConfusionAt(t *testing.T) {
	r := NewROC(4)
	r.Add(0.9, true)
	r.Add(0.4, true)
	r.Add(0.6, false)
	r.Add(0.1, false)
	c := r.ConfusionAt(0.5)
	if c.TP != 1 || c.FN != 1 || c.FP != 1 || c.TN != 1 {
		t.Errorf("ConfusionAt(0.5) = %+v", c)
	}
}

func TestROCRandomScoresAUCHalf(t *testing.T) {
	// Deterministic LCG noise; labels independent of scores → AUC ≈ 0.5.
	r := NewROC(4000)
	lcg := uint64(99)
	next := func() float64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return float64(lcg>>11) / float64(1<<53)
	}
	for i := 0; i < 4000; i++ {
		r.Add(next(), next() < 0.3)
	}
	if auc := r.AUC(); !almost(auc, 0.5, 0.05) {
		t.Errorf("random AUC = %g, want ~0.5", auc)
	}
}

func TestGridROCAgreesWithExact(t *testing.T) {
	exact := NewROC(2000)
	grid := NewGridROC(200)
	lcg := uint64(7)
	next := func() float64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return float64(lcg>>11) / float64(1<<53)
	}
	for i := 0; i < 2000; i++ {
		score := next()
		malicious := next() < score // correlated: AUC well above 0.5
		exact.Add(score, malicious)
		grid.Add(score, malicious)
	}
	if !almost(exact.AUC(), grid.AUC(), 0.02) {
		t.Errorf("grid AUC %g vs exact %g", grid.AUC(), exact.AUC())
	}
	ce := exact.ConfusionAt(0.5)
	cg := grid.ConfusionAt(0.5)
	if ce != cg {
		t.Errorf("confusion at 0.5: grid %+v vs exact %+v", cg, ce)
	}
}

func TestGridROCClamping(t *testing.T) {
	g := NewGridROC(10)
	g.Add(-5, true)
	g.Add(7, false)
	pos, neg := g.Totals()
	if pos != 1 || neg != 1 {
		t.Errorf("totals = %d/%d", pos, neg)
	}
	c := g.ConfusionAt(0.5)
	if c.FN != 1 || c.FP != 1 {
		t.Errorf("clamped scores landed wrong: %+v", c)
	}
	if NewGridROC(2).Curve() != nil {
		t.Error("empty grid should have nil curve")
	}
}

func TestGridROCBestYouden(t *testing.T) {
	g := NewGridROC(100)
	for i := 0; i < 100; i++ {
		g.Add(0.8, true)
		g.Add(0.2, false)
	}
	thr, conf := g.BestYouden()
	if thr <= 0.2 || thr > 0.8 {
		t.Errorf("threshold = %g, want in (0.2, 0.8]", thr)
	}
	if conf.FP != 0 || conf.FN != 0 {
		t.Errorf("imperfect split: %+v", conf)
	}
}

// Property: ROC curves are monotone non-decreasing in both axes.
func TestROCMonotoneProperty(t *testing.T) {
	f := func(scores []float64, labels []bool) bool {
		n := len(scores)
		if len(labels) < n {
			n = len(labels)
		}
		r := NewROC(n)
		for i := 0; i < n; i++ {
			s := math.Abs(math.Mod(scores[i], 1))
			if math.IsNaN(s) {
				s = 0
			}
			r.Add(s, labels[i])
		}
		curve := r.Curve()
		for i := 1; i < len(curve); i++ {
			if curve[i].TPR < curve[i-1].TPR-1e-12 || curve[i].FPR < curve[i-1].FPR-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
