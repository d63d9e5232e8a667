package experiments

import (
	"fmt"

	"divscrape/internal/detector"
	"divscrape/internal/diversity"
	"divscrape/internal/ensemble"
	"divscrape/internal/evaluate"
	"divscrape/internal/iprep"
	"divscrape/internal/report"
	"divscrape/internal/trajectory"
	"divscrape/internal/workload"
)

// TrajectoryRun is experiment E13: the semantic trajectory detector
// deployed as a third first-class channel next to the paper's commercial
// and behavioural tools. Where E11 adds a learned detector over the same
// per-request evidence, trajectory judges a different signal entirely —
// the shape of the navigation path through the site — so this experiment
// asks the paper's core question at the three-channel scale: does the
// new channel disagree with the old ones in the useful direction? The
// trajectory model trains on an offset seed so the evaluation stays
// held-out.
type TrajectoryRun struct {
	// Names are the three detector names in vote order.
	Names [3]string
	// Total is the number of evaluated requests.
	Total uint64
	// Singles are the per-detector confusion matrices.
	Singles [3]evaluate.Confusion
	// Votes[k-1] is the k-out-of-3 confusion matrix.
	Votes [3]evaluate.Confusion
	// Weighted is the mean-score fusion matrix at the E6 threshold.
	Weighted evaluate.Confusion
	// Pairs are the pairwise diversity tables in (0,1), (0,2), (1,2)
	// order: alert agreement plus labelled correctness agreement.
	Pairs [3]PairDiversity
}

// PairDiversity carries everything the pairwise diversity analysis
// needs for one detector pair.
type PairDiversity struct {
	// A and B name the two detectors.
	A, B string
	// Alerts is the raw alert-agreement table (the paper's Table 2 view).
	Alerts diversity.Contingency
	// Correctness is the labelled agreement-on-correctness table the
	// diversity measures and the McNemar test are computed from.
	Correctness diversity.CorrectnessTable
}

// pairIndex enumerates the three unordered pairs of three detectors.
var pairIndex = [3][2]int{{0, 1}, {0, 2}, {1, 2}}

// ExecuteTrajectory trains the trajectory model on an offset seed, then
// evaluates sentinel, arcane and trajectory plus the 1/2/3-out-of-3 and
// weighted schemes over the scale's dataset, accumulating pairwise
// diversity as it goes.
func ExecuteTrajectory(scale Scale) (*TrajectoryRun, error) {
	model, err := trajectory.Train(trajectory.TrainConfig{Seed: scale.Seed + 0x7261})
	if err != nil {
		return nil, fmt.Errorf("experiments: train trajectory: %w", err)
	}
	traj, err := trajectory.New(trajectory.Config{Model: model})
	if err != nil {
		return nil, fmt.Errorf("experiments: trajectory detector: %w", err)
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

	run := &TrajectoryRun{Names: [3]string{sen.Name(), arc.Name(), traj.Name()}}
	for i, p := range pairIndex {
		run.Pairs[i].A = run.Names[p[0]]
		run.Pairs[i].B = run.Names[p[1]]
	}
	adjs := [3]ensemble.KOutOfN{{K: 1}, {K: 2}, {K: 3}}
	weighted := ensemble.Weighted{Weights: []float64{1, 1, 1}, Threshold: 0.24}
	verdicts := make([]detector.Verdict, 3)
	err = gen.Run(func(ev workload.Event) error {
		req := enricher.Enrich(ev.Entry)
		verdicts[0] = sen.Inspect(&req)
		verdicts[1] = arc.Inspect(&req)
		verdicts[2] = traj.Inspect(&req)
		malicious := ev.Label.Malicious()
		run.Total++
		for i := range verdicts {
			run.Singles[i].Add(verdicts[i].Alert, malicious)
		}
		for i, adj := range adjs {
			run.Votes[i].Add(adj.Decide(verdicts).Alert, malicious)
		}
		run.Weighted.Add(weighted.Decide(verdicts).Alert, malicious)
		for i, p := range pairIndex {
			a, b := verdicts[p[0]].Alert, verdicts[p[1]].Alert
			run.Pairs[i].Alerts.Add(a, b)
			run.Pairs[i].Correctness.Add(a, b, malicious)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: trajectory run: %w", err)
	}
	return run, nil
}

// Table13 renders E13's accuracy half: singles, vote schemes and the
// weighted fusion.
func Table13(run *TrajectoryRun) *report.Table {
	t := &report.Table{
		Title: "E13 – Semantic trajectory as a third channel (accuracy)",
		Columns: []string{
			"Metric",
			run.Names[0], run.Names[1], run.Names[2],
			"1oo3", "2oo3", "3oo3", "weighted",
		},
		Aligns: []report.Align{
			report.Left,
			report.Right, report.Right, report.Right,
			report.Right, report.Right, report.Right, report.Right,
		},
	}
	confs := []evaluate.Confusion{
		run.Singles[0], run.Singles[1], run.Singles[2],
		run.Votes[0], run.Votes[1], run.Votes[2],
		run.Weighted,
	}
	addConfusionRows(t, confs)
	return t
}

// Table13Diversity renders E13's diversity half: for each detector pair,
// the alert-correlation and labelled-correctness measures plus the
// McNemar significance test over discordant decisions. A lower Yule's Q
// against both incumbents is the evidence that trajectory buys
// independence, not redundancy.
func Table13Diversity(run *TrajectoryRun) *report.Table {
	t := &report.Table{
		Title: "E13 – Pairwise diversity with the trajectory channel",
		Columns: []string{
			"Measure",
			run.Pairs[0].A + "/" + run.Pairs[0].B,
			run.Pairs[1].A + "/" + run.Pairs[1].B,
			run.Pairs[2].A + "/" + run.Pairs[2].B,
		},
		Aligns: []report.Align{report.Left, report.Right, report.Right, report.Right},
	}
	row := func(name string, f func(*PairDiversity) string) {
		cells := make([]string, 0, 4)
		cells = append(cells, name)
		for i := range run.Pairs {
			cells = append(cells, f(&run.Pairs[i]))
		}
		t.AddRow(cells...)
	}
	row("Both alert", func(p *PairDiversity) string { return report.Count(p.Alerts.Both) })
	row("A only", func(p *PairDiversity) string { return report.Count(p.Alerts.AOnly) })
	row("B only", func(p *PairDiversity) string { return report.Count(p.Alerts.BOnly) })
	row("Yule's Q (alerts)", func(p *PairDiversity) string {
		m := diversity.MeasuresFromContingency(p.Alerts)
		if !m.Defined {
			return "n/a"
		}
		return report.Metric(m.YuleQ)
	})
	row("Yule's Q (correct)", func(p *PairDiversity) string {
		m := diversity.MeasuresFromCorrectness(p.Correctness)
		if !m.Defined {
			return "n/a"
		}
		return report.Metric(m.YuleQ)
	})
	row("Disagreement", func(p *PairDiversity) string {
		return report.Metric(diversity.MeasuresFromCorrectness(p.Correctness).Disagreement)
	})
	row("Double fault", func(p *PairDiversity) string {
		return report.Metric(diversity.MeasuresFromCorrectness(p.Correctness).DoubleFault)
	})
	row("McNemar χ²", func(p *PairDiversity) string {
		return report.Metric(diversity.McNemarFromCorrectness(p.Correctness).Statistic)
	})
	row("McNemar p", func(p *PairDiversity) string {
		return report.Metric(diversity.McNemarFromCorrectness(p.Correctness).PValue)
	})
	return t
}
