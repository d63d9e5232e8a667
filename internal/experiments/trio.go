package experiments

import (
	"fmt"

	"divscrape/internal/bayes"
	"divscrape/internal/detector"
	"divscrape/internal/diversity"
	"divscrape/internal/ensemble"
	"divscrape/internal/evaluate"
	"divscrape/internal/iprep"
	"divscrape/internal/report"
	"divscrape/internal/trajectory"
	"divscrape/internal/workload"
)

// TrioRun is one pass of three detectors over a scale's dataset: the
// paper's two tools and a third channel. E11 adds a learned Naive Bayes
// detector (the probabilistic approach of the paper's cited related
// work) over the same per-request evidence; E13 adds the semantic
// trajectory detector, which judges a different signal entirely — the
// shape of the navigation path through the site — and so asks the
// paper's core question at the three-channel scale: does the new channel
// disagree with the old ones in the useful direction? Each third
// detector trains on an offset seed so the evaluation stays held-out.
type TrioRun struct {
	// Names are the three detector names in vote order.
	Names [3]string
	// Table is the labelled agreement table of the three: the singles,
	// the k-out-of-3 votes and every pair's tables are its views.
	Table diversity.Table
	// Weighted is the mean-score fusion matrix at the E6 threshold (E13's
	// last column).
	Weighted evaluate.Confusion
}

// ExecuteThreeWay trains the Bayes detector on an offset seed, then
// evaluates sentinel, arcane and bayes over the scale's dataset (E11).
func ExecuteThreeWay(scale Scale) (*TrioRun, error) {
	model, err := bayes.Train(bayes.TrainConfig{Seed: scale.Seed + 0x5eed})
	if err != nil {
		return nil, fmt.Errorf("experiments: train bayes: %w", err)
	}
	bay, err := bayes.New(bayes.Config{Model: model})
	if err != nil {
		return nil, fmt.Errorf("experiments: bayes detector: %w", err)
	}
	return executeTrio(scale, bay)
}

// ExecuteTrajectory trains the trajectory model on an offset seed, then
// evaluates sentinel, arcane and trajectory over the scale's dataset
// (E13).
func ExecuteTrajectory(scale Scale) (*TrioRun, error) {
	model, err := trajectory.Train(trajectory.TrainConfig{Seed: scale.Seed + 0x7261})
	if err != nil {
		return nil, fmt.Errorf("experiments: train trajectory: %w", err)
	}
	traj, err := trajectory.New(trajectory.Config{Model: model})
	if err != nil {
		return nil, fmt.Errorf("experiments: trajectory detector: %w", err)
	}
	return executeTrio(scale, traj)
}

// executeTrio runs fresh sentinel and arcane detectors and third over
// the scale's dataset.
func executeTrio(scale Scale, third detector.Detector) (*TrioRun, error) {
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

	dets := [3]detector.Detector{sen, arc, third}
	run := &TrioRun{Names: [3]string{sen.Name(), arc.Name(), third.Name()}}
	if run.Table, err = diversity.NewTable(len(dets)); err != nil {
		return nil, err
	}
	weighted := ensemble.Weighted{Weights: []float64{1, 1, 1}, Threshold: 0.24}
	verdicts := make([]detector.Verdict, len(dets))
	err = gen.Run(func(ev workload.Event) error {
		req := enricher.Enrich(ev.Entry)
		for i, d := range dets {
			verdicts[i] = d.Inspect(&req)
		}
		malicious := ev.Label.Malicious()
		run.Table.Add(verdicts, malicious)
		run.Weighted.Add(weighted.Decide(verdicts).Alert, malicious)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s run: %w", third.Name(), err)
	}
	return run, nil
}

// singlesAndVotes lists the three detectors' confusion matrices, then the
// 1-, 2- and 3-out-of-3 votes'.
func singlesAndVotes(t *diversity.Table) []evaluate.Confusion {
	confs := make([]evaluate.Confusion, 0, 7)
	for i := 0; i < 3; i++ {
		confs = append(confs, t.Confusion(i))
	}
	for k := 1; k <= 3; k++ {
		confs = append(confs, t.Vote(k))
	}
	return confs
}

// Table11 renders E11.
func Table11(run *TrioRun) *report.Table {
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
	addConfusionRows(t, singlesAndVotes(&run.Table))
	return t
}

// Table13 renders E13's accuracy half: singles, vote schemes and the
// weighted fusion.
func Table13(run *TrioRun) *report.Table {
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
	addConfusionRows(t, append(singlesAndVotes(&run.Table), run.Weighted))
	return t
}

// Table13Diversity renders E13's diversity half: for each detector pair,
// the alert-correlation and labelled-correctness measures plus the
// McNemar significance test over discordant decisions. A lower Yule's Q
// against both incumbents is the evidence that trajectory buys
// independence, not redundancy.
func Table13Diversity(run *TrioRun) *report.Table {
	type pair struct{ alerts, correct diversity.Contingency }
	t := &report.Table{
		Title:   "E13 – Pairwise diversity with the trajectory channel",
		Columns: []string{"Measure"},
		Aligns:  []report.Align{report.Left},
	}
	var pairs []pair
	for i := 0; i < len(run.Names); i++ {
		for j := i + 1; j < len(run.Names); j++ {
			pairs = append(pairs, pair{run.Table.Pair(i, j), run.Table.Correctness(i, j)})
			t.Columns = append(t.Columns, run.Names[i]+"/"+run.Names[j])
			t.Aligns = append(t.Aligns, report.Right)
		}
	}
	row := func(name string, f func(*pair) string) {
		cells := make([]string, 0, len(pairs)+1)
		cells = append(cells, name)
		for i := range pairs {
			cells = append(cells, f(&pairs[i]))
		}
		t.AddRow(cells...)
	}
	yuleQ := func(c diversity.Contingency) string {
		m := diversity.MeasuresFromContingency(c)
		if !m.Defined {
			return "n/a"
		}
		return report.Metric(m.YuleQ)
	}
	row("Both alert", func(p *pair) string { return report.Count(p.alerts.Both) })
	row("A only", func(p *pair) string { return report.Count(p.alerts.AOnly) })
	row("B only", func(p *pair) string { return report.Count(p.alerts.BOnly) })
	row("Yule's Q (alerts)", func(p *pair) string { return yuleQ(p.alerts) })
	row("Yule's Q (correct)", func(p *pair) string { return yuleQ(p.correct) })
	row("Disagreement", func(p *pair) string {
		return report.Metric(diversity.MeasuresFromContingency(p.correct).Disagreement)
	})
	row("Double fault", func(p *pair) string {
		return report.Metric(diversity.MeasuresFromContingency(p.correct).DoubleFault)
	})
	row("McNemar χ²", func(p *pair) string {
		return report.Metric(diversity.McNemarFromCorrectness(p.correct).Statistic)
	})
	row("McNemar p", func(p *pair) string {
		return report.Metric(diversity.McNemarFromCorrectness(p.correct).PValue)
	})
	return t
}
