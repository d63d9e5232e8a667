package experiments

import (
	"fmt"

	"divscrape/internal/bayes"
	"divscrape/internal/detector"
	"divscrape/internal/ensemble"
	"divscrape/internal/evaluate"
	"divscrape/internal/iprep"
	"divscrape/internal/report"
	"divscrape/internal/workload"
)

// ThreeWayRun is experiment E11: the paper's diverse-detector study
// extended from two detectors to three by adding a learned Naive Bayes
// detector (the probabilistic approach of the paper's cited related
// work). The Bayes model trains on an independent seed so the evaluation
// stays held-out.
type ThreeWayRun struct {
	// Names are the three detector names in vote order.
	Names [3]string
	// Total is the number of evaluated requests.
	Total uint64
	// Singles are the per-detector confusion matrices.
	Singles [3]evaluate.Confusion
	// Votes[k-1] is the k-out-of-3 confusion matrix.
	Votes [3]evaluate.Confusion
}

// ExecuteThreeWay trains the Bayes detector on an offset seed, then
// evaluates all three detectors and the 1/2/3-out-of-3 schemes over the
// scale's dataset.
func ExecuteThreeWay(scale Scale) (*ThreeWayRun, error) {
	model, err := bayes.Train(bayes.TrainConfig{Seed: scale.Seed + 0x5eed})
	if err != nil {
		return nil, fmt.Errorf("experiments: train bayes: %w", err)
	}
	bay, err := bayes.New(bayes.Config{Model: model})
	if err != nil {
		return nil, fmt.Errorf("experiments: bayes detector: %w", err)
	}
	sen, arc, err := freshPair()
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}

	gen, err := workload.NewGenerator(workload.Config{
		Seed:     scale.Seed,
		Duration: scale.Duration,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: generator: %w", err)
	}
	enricher := detector.NewEnricher(iprep.BuildFeed())

	run := &ThreeWayRun{Names: [3]string{sen.Name(), arc.Name(), bay.Name()}}
	adjs := [3]ensemble.KOutOfN{{K: 1}, {K: 2}, {K: 3}}
	verdicts := make([]detector.Verdict, 3)
	err = gen.Run(func(ev workload.Event) error {
		req := enricher.Enrich(ev.Entry)
		verdicts[0] = sen.Inspect(&req)
		verdicts[1] = arc.Inspect(&req)
		verdicts[2] = bay.Inspect(&req)
		malicious := ev.Label.Malicious()
		run.Total++
		for i := range verdicts {
			run.Singles[i].Add(verdicts[i].Alert, malicious)
		}
		for i, adj := range adjs {
			run.Votes[i].Add(adj.Decide(verdicts).Alert, malicious)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: three-way run: %w", err)
	}
	return run, nil
}

// Table11 renders E11.
func Table11(run *ThreeWayRun) *report.Table {
	t := &report.Table{
		Title: "E11 – Three diverse detectors (adding a learned Naive Bayes detector)",
		Columns: []string{
			"Metric",
			run.Names[0], run.Names[1], run.Names[2],
			"1oo3", "2oo3", "3oo3",
		},
		Aligns: []report.Align{
			report.Left,
			report.Right, report.Right, report.Right,
			report.Right, report.Right, report.Right,
		},
	}
	confs := []evaluate.Confusion{
		run.Singles[0], run.Singles[1], run.Singles[2],
		run.Votes[0], run.Votes[1], run.Votes[2],
	}
	addConfusionRows(t, confs)
	return t
}
