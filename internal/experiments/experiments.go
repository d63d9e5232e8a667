// Package experiments defines and executes the reproduction's experiment
// suite: E1-E4 regenerate the paper's four tables; E5-E10 run the labelled
// analyses the paper's Section V plans (sensitivity/specificity,
// adjudication schemes, serial vs parallel deployment, single-tool-alert
// forensics, diversity statistics, ROC sweeps). One replay of a generated
// dataset through the detection pipeline — the decision core the CLI and
// the guard run — feeds every per-request accumulator, and E11/E13 replay
// the same way with a third detector. The containment study (E12) runs its
// closed loop on the same core, a shard with a ladder, because enforcement
// changes what the actors send next. The topology study (E7) reads its
// parallel rows from E1's table and runs a pass per serial cascade, which
// skips the second side and so changes what that side sees.
package experiments

import (
	"context"
	"fmt"
	"time"

	"divscrape/internal/arcane"
	"divscrape/internal/detector"
	"divscrape/internal/diversity"
	"divscrape/internal/ensemble"
	"divscrape/internal/evaluate"
	"divscrape/internal/iprep"
	"divscrape/internal/pipeline"
	"divscrape/internal/registry"
	"divscrape/internal/sentinel"
	"divscrape/internal/workload"
)

// Scale selects how much of the 8-day capture to simulate. The traffic
// profile is identical at every scale; only the window length changes, so
// rates, session shapes and detector behaviour are preserved.
type Scale struct {
	// Name labels the scale in reports ("ci", "paper", ...).
	Name string
	// Duration is the simulated capture window.
	Duration time.Duration
	// Seed fixes the run.
	Seed uint64
}

// Predefined scales.
var (
	// BenchScale is small enough for go test -bench iterations.
	BenchScale = Scale{Name: "bench", Duration: 3 * time.Hour, Seed: 42}
	// CIScale is the default for divreport: one simulated day.
	CIScale = Scale{Name: "ci", Duration: 24 * time.Hour, Seed: 42}
	// PaperScale replays the full 8-day window of the paper's dataset.
	PaperScale = Scale{Name: "paper", Duration: 8 * 24 * time.Hour, Seed: 42}
)

// ScaleByName resolves a scale label.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "bench":
		return BenchScale, nil
	case "ci", "":
		return CIScale, nil
	case "paper":
		return PaperScale, nil
	default:
		return Scale{}, fmt.Errorf("experiments: unknown scale %q (want bench, ci or paper)", name)
	}
}

// DetectorPair names the two tools in paper order: A plays Distil
// (commercial), B plays Arcane (in-house).
type DetectorPair struct {
	A, B string
}

// Run is everything one streaming pass collects.
type Run struct {
	// Scale is the executed scale.
	Scale Scale
	// Names are the detector names (A = commercial-style, B = behavioural).
	Names DetectorPair
	// Table is the labelled agreement table of the pair (detector 0 =
	// sentinel, 1 = arcane): E1's totals, E2's cells, E5's and E6's vote
	// matrices and E9's measures are its views.
	Table diversity.Table
	// Status keeps a table per HTTP status (E3/E4).
	Status *diversity.Partition[int]
	// ByArch keeps a table per ground-truth archetype (E8).
	ByArch *diversity.Partition[detector.Archetype]
	// ConfWeighted is the score-fusion matrix (E6 extension row).
	ConfWeighted evaluate.Confusion
	// ROCA and ROCB accumulate score distributions for E10.
	ROCA, ROCB *evaluate.GridROC
	// Elapsed is the wall-clock cost of the pass.
	Elapsed time.Duration
}

// Options tunes the measurement pass, for the ablation benches.
type Options struct {
	// Sentinel overrides the commercial-style detector config.
	Sentinel sentinel.Config
	// Arcane overrides the behavioural detector config.
	Arcane arcane.Config
	// Profile overrides the traffic mix; zero selects the calibrated one.
	Profile workload.Profile
	// WeightedThreshold is the fused-score alert level for the weighted
	// adjudication row. Default 0.24.
	WeightedThreshold float64
	// Shards, when positive, runs the measurement pass through the
	// sharded detection pipeline with that many workers instead of the
	// sequential one. Results are identical (the pipeline's ordered
	// delivery restores stream order and per-client state is
	// shard-local); only wall-clock changes.
	Shards int
}

// Execute runs the full single-pass measurement at the given scale.
func Execute(scale Scale) (*Run, error) {
	return ExecuteOpts(scale, Options{})
}

// ExecuteOpts is Execute with configuration overrides.
func ExecuteOpts(scale Scale, opts Options) (*Run, error) {
	wThreshold := opts.WeightedThreshold
	if wThreshold <= 0 {
		wThreshold = 0.24
	}
	run := &Run{
		Scale: scale,
		Names: DetectorPair{A: "sentinel", B: "arcane"},
		ROCA:  evaluate.NewGridROC(200),
		ROCB:  evaluate.NewGridROC(200),
	}
	var err error
	if run.Table, err = diversity.NewTable(2); err != nil {
		return nil, err
	}
	if run.Status, err = diversity.NewPartition[int](2); err != nil {
		return nil, err
	}
	if run.ByArch, err = diversity.NewPartition[detector.Archetype](2); err != nil {
		return nil, err
	}
	factories, err := registry.Factories(registry.Config{Sentinel: opts.Sentinel, Arcane: opts.Arcane})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	started := time.Now()
	_, err = replay(scale, opts.Profile, opts.Shards, factories, func(label detector.Label, d pipeline.Decision) {
		malicious := label.Malicious()
		va, vb := &d.Verdicts[0], &d.Verdicts[1]
		run.Table.Add(d.Verdicts, malicious)
		run.Status.Add(d.Req.Entry.Status, d.Verdicts, malicious)
		run.ByArch.Add(label.Archetype, d.Verdicts, malicious)
		run.ConfWeighted.Add((va.Score+vb.Score)/2 >= wThreshold, malicious)
		run.ROCA.Add(va.Score, malicious)
		run.ROCB.Add(vb.Score, malicious)
	})
	if err != nil {
		return nil, err
	}
	run.Elapsed = time.Since(started)
	return run, nil
}

// replay judges the scale's dataset through the detection pipeline built
// from factories — the sequential engine when shards ≤ 0, the sharded one
// with its ordered delivery otherwise — and hands every decision, in
// stream order, to fold with the request's ground truth. It returns the
// detectors' names in verdict order.
func replay(scale Scale, profile workload.Profile, shards int, factories []detector.Factory,
	fold func(detector.Label, pipeline.Decision)) ([]string, error) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed:     scale.Seed,
		Duration: scale.Duration,
		Profile:  profile,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: generator: %w", err)
	}
	cfg := pipeline.Config{Factories: factories, Reputation: iprep.BuildFeed()}
	if shards > 0 {
		cfg.Mode, cfg.Shards = pipeline.Sharded, shards
	}
	pipe, err := pipeline.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: pipeline: %w", err)
	}
	src, err := gen.Source(shards > 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	defer src.Stop()
	err = pipe.Run(context.Background(), src.Next, func(d pipeline.Decision) error {
		fold(src.Label(d.Req.Seq), d)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: run: %w", err)
	}
	return pipe.Detectors(), nil
}

// TopologyResult is one deployment arrangement's outcome (E7).
type TopologyResult struct {
	// Name identifies the arrangement.
	Name string
	// Conf is its labelled confusion matrix.
	Conf evaluate.Confusion
	// Costs is the per-detector inspection load.
	Costs []ensemble.DetectorCost
}

// ExecuteTopologies measures the two parallel votes and the four serial
// arrangements (E7) over run's dataset, which Execute judged. The
// parallel rows are views of run's table: both sides saw every request.
// Each cascade runs its own pass with fresh detectors, because it skips
// the second side, and that changes the side's state.
func ExecuteTopologies(run *Run) ([]TopologyResult, error) {
	parallel := []ensemble.DetectorCost{
		{Detector: run.Names.A, Inspected: run.Table.Total()},
		{Detector: run.Names.B, Inspected: run.Table.Total()},
	}
	results := []TopologyResult{
		{Name: "parallel 1oo2", Conf: run.Table.Vote(1), Costs: parallel},
		{Name: "parallel 2oo2", Conf: run.Table.Vote(2), Costs: parallel},
	}
	factories, err := registry.Factories(registry.Config{})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	cascades := []struct {
		first int
		mode  ensemble.SerialMode
		op    string
	}{
		{0, ensemble.CascadeOR, "OR"}, {0, ensemble.CascadeAND, "AND"},
		{1, ensemble.CascadeOR, "OR"}, {1, ensemble.CascadeAND, "AND"},
	}
	for _, c := range cascades {
		dets, err := detector.Build(factories)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		filter, analyzer := dets[c.first], dets[1-c.first]
		name := fmt.Sprintf("serial %s→%s %s", filter.Name(), analyzer.Name(), c.op)
		topo, err := ensemble.NewSerial(filter, analyzer, c.mode)
		if err != nil {
			return nil, fmt.Errorf("experiments: build %s: %w", name, err)
		}
		gen, err := workload.NewGenerator(workload.Config{Seed: run.Scale.Seed, Duration: run.Scale.Duration})
		if err != nil {
			return nil, fmt.Errorf("experiments: generator: %w", err)
		}
		// An enricher of its own, not a pipeline's shard: a serial cascade
		// skips the second detector on what the first decided, by design,
		// where shard.Judge runs every side on every request.
		enricher := detector.NewEnricher(iprep.BuildFeed())
		var conf evaluate.Confusion
		err = gen.Run(func(ev workload.Event) error {
			req := enricher.Enrich(ev.Entry)
			conf.Add(topo.Inspect(&req).Alert, ev.Label.Malicious())
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: topology %s: %w", name, err)
		}
		results = append(results, TopologyResult{Name: name, Conf: conf, Costs: topo.Cost()})
	}
	return results, nil
}
