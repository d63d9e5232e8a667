// Package experiments defines and executes the reproduction's experiment
// suite: E1-E4 regenerate the paper's four tables; E5-E10 run the labelled
// analyses the paper's Section V plans (sensitivity/specificity,
// adjudication schemes, serial vs parallel deployment, single-tool-alert
// forensics, diversity statistics, ROC sweeps). One streaming pass over a
// generated dataset feeds every per-request accumulator; the topology
// study (E7) runs its own passes because deployment shape changes detector
// state.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"divscrape/internal/arcane"
	"divscrape/internal/detector"
	"divscrape/internal/diversity"
	"divscrape/internal/ensemble"
	"divscrape/internal/evaluate"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
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

// buildDetectors constructs the calibrated pair. Exposed through Options
// for the ablation benches.
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
	// sharded detection pipeline with that many workers instead of
	// inspecting inline. Results are identical (the pipeline's ordered
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
	gen, err := workload.NewGenerator(workload.Config{
		Seed:     scale.Seed,
		Duration: scale.Duration,
		Profile:  opts.Profile,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: generator: %w", err)
	}
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
	if run.Table, err = diversity.NewTable(2); err != nil {
		return nil, err
	}
	if run.Status, err = diversity.NewPartition[int](2); err != nil {
		return nil, err
	}
	if run.ByArch, err = diversity.NewPartition[detector.Archetype](2); err != nil {
		return nil, err
	}
	// accumulate folds one request's pair of verdicts into every
	// accumulator.
	accumulate := func(ev *workload.Event, verdicts []detector.Verdict) {
		malicious := ev.Label.Malicious()
		va, vb := &verdicts[0], &verdicts[1]
		run.Table.Add(verdicts, malicious)
		run.Status.Add(ev.Entry.Status, verdicts, malicious)
		run.ByArch.Add(ev.Label.Archetype, verdicts, malicious)
		run.ConfWeighted.Add((va.Score+vb.Score)/2 >= wThreshold, malicious)
		run.ROCA.Add(va.Score, malicious)
		run.ROCB.Add(vb.Score, malicious)
	}

	factories, err := registry.Factories(registry.Config{Sentinel: opts.Sentinel, Arcane: opts.Arcane})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if opts.Shards > 0 {
		return executeSharded(gen, run, opts, factories, accumulate)
	}
	pair, err := detector.Build(factories)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}

	enricher := detector.NewEnricher(iprep.BuildFeed())
	started := time.Now()
	var req detector.Request
	verdicts := make([]detector.Verdict, len(pair))
	err = gen.Run(func(ev workload.Event) error {
		enricher.EnrichInto(&req, ev.Entry)
		for i, d := range pair {
			verdicts[i] = d.Inspect(&req)
		}
		accumulate(&ev, verdicts)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: run: %w", err)
	}
	run.Elapsed = time.Since(started)
	return run, nil
}

// executeSharded runs the measurement pass through the key-partitioned
// pipeline. Events are materialised so labels can be joined back by the
// enricher's sequence number.
func executeSharded(gen *workload.Generator, run *Run, opts Options, factories []detector.Factory,
	accumulate func(*workload.Event, []detector.Verdict)) (*Run, error) {
	events, err := gen.Generate()
	if err != nil {
		return nil, fmt.Errorf("experiments: generate: %w", err)
	}
	pipe, err := pipeline.New(pipeline.Config{
		Factories:  factories,
		Reputation: iprep.BuildFeed(),
		Mode:       pipeline.Sharded,
		Shards:     opts.Shards,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: pipeline: %w", err)
	}

	started := time.Now()
	i := 0
	src := func() (logfmt.Entry, error) {
		if i >= len(events) {
			return logfmt.Entry{}, io.EOF
		}
		e := events[i].Entry
		i++
		return e, nil
	}
	err = pipe.Run(context.Background(), src, func(d pipeline.Decision) error {
		accumulate(&events[d.Req.Seq], d.Verdicts)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: sharded run: %w", err)
	}
	run.Elapsed = time.Since(started)
	return run, nil
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

// ExecuteTopologies measures the four serial arrangements plus the two
// parallel votes, each over a fresh generator pass and fresh detector
// state (E7). Parallel results are recomputed (not reused from Execute)
// so all six rows share identical methodology.
func ExecuteTopologies(scale Scale) ([]TopologyResult, error) {
	builds := []struct {
		name string
		make func(sen, arc detector.Detector) (ensemble.Topology, error)
	}{
		{"parallel 1oo2", func(sen, arc detector.Detector) (ensemble.Topology, error) {
			return ensemble.NewParallel(ensemble.KOutOfN{K: 1}, sen, arc)
		}},
		{"parallel 2oo2", func(sen, arc detector.Detector) (ensemble.Topology, error) {
			return ensemble.NewParallel(ensemble.KOutOfN{K: 2}, sen, arc)
		}},
		{"serial sentinel→arcane OR", func(sen, arc detector.Detector) (ensemble.Topology, error) {
			return ensemble.NewSerial(sen, arc, ensemble.CascadeOR)
		}},
		{"serial sentinel→arcane AND", func(sen, arc detector.Detector) (ensemble.Topology, error) {
			return ensemble.NewSerial(sen, arc, ensemble.CascadeAND)
		}},
		{"serial arcane→sentinel OR", func(sen, arc detector.Detector) (ensemble.Topology, error) {
			return ensemble.NewSerial(arc, sen, ensemble.CascadeOR)
		}},
		{"serial arcane→sentinel AND", func(sen, arc detector.Detector) (ensemble.Topology, error) {
			return ensemble.NewSerial(arc, sen, ensemble.CascadeAND)
		}},
	}

	results := make([]TopologyResult, 0, len(builds))
	for _, b := range builds {
		sen, arc, err := freshPair()
		if err != nil {
			return nil, fmt.Errorf("experiments: build %s: %w", b.name, err)
		}
		topo, err := b.make(sen, arc)
		if err != nil {
			return nil, fmt.Errorf("experiments: build %s: %w", b.name, err)
		}
		gen, err := workload.NewGenerator(workload.Config{
			Seed:     scale.Seed,
			Duration: scale.Duration,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: generator: %w", err)
		}
		enricher := detector.NewEnricher(iprep.BuildFeed())
		var conf evaluate.Confusion
		err = gen.Run(func(ev workload.Event) error {
			req := enricher.Enrich(ev.Entry)
			v := topo.Inspect(&req)
			conf.Add(v.Alert, ev.Label.Malicious())
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: topology %s: %w", b.name, err)
		}
		results = append(results, TopologyResult{Name: b.name, Conf: conf, Costs: topo.Cost()})
	}
	return results, nil
}

func freshPair() (*sentinel.Detector, *arcane.Detector, error) {
	sen, err := sentinel.New(sentinel.Config{})
	if err != nil {
		return nil, nil, err
	}
	arc, err := arcane.New(arcane.Config{})
	if err != nil {
		return nil, nil, err
	}
	return sen, arc, nil
}
