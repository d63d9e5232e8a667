package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"divscrape/internal/diversity"
	"divscrape/internal/report"
)

// The bench-scale run feeds every assertion below; execute it once.
var benchRun *Run

func run(t *testing.T) *Run {
	t.Helper()
	if benchRun == nil {
		r, err := Execute(BenchScale)
		if err != nil {
			t.Fatal(err)
		}
		benchRun = r
	}
	return benchRun
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"bench", "ci", "paper", ""} {
		if _, err := ScaleByName(name); err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("galactic"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestRunInvariants(t *testing.T) {
	r := run(t)
	total := r.Table.Total()
	if total == 0 {
		t.Fatal("empty run")
	}
	// The per-status and per-archetype tables each partition the stream.
	// (Every view of one table counts the same stream by construction:
	// the diversity package's model test holds them to it.)
	var status, arch diversity.Table
	for _, s := range r.Status.Ranked((*diversity.Table).Total) {
		status.Merge(r.Status.Table(s.Key))
	}
	for _, a := range r.ByArch.Ranked((*diversity.Table).Total) {
		arch.Merge(r.ByArch.Table(a.Key))
	}
	if !reflect.DeepEqual(status, r.Table) || !reflect.DeepEqual(arch, r.Table) {
		t.Error("per-status or per-archetype tables do not sum to the run's table")
	}
	// ROC accumulators saw every request, with the table's ground truth.
	posA, negA := r.ROCA.Totals()
	if c := r.Table.Confusion(0); posA != c.TP+c.FN || negA != c.FP+c.TN {
		t.Error("ROC totals inconsistent")
	}
	if r.ConfWeighted.Total() != total {
		t.Error("weighted confusion incomplete")
	}
}

// TestAdjudicationIdentities checks the votes' set inclusions on the
// measured detectors: a 1oo2 alert is a superset of each single tool's,
// a 2oo2 alert a subset.
func TestAdjudicationIdentities(t *testing.T) {
	r := run(t)
	confA, confB := r.Table.Confusion(0), r.Table.Confusion(1)
	vote1, vote2 := r.Table.Vote(1), r.Table.Vote(2)
	// Sensitivity ordering: 1oo2 >= each single >= 2oo2 (set inclusion).
	if vote1.Sensitivity() < confA.Sensitivity()-1e-12 ||
		vote1.Sensitivity() < confB.Sensitivity()-1e-12 {
		t.Error("1oo2 sensitivity below a single tool")
	}
	if vote2.Sensitivity() > confA.Sensitivity()+1e-12 ||
		vote2.Sensitivity() > confB.Sensitivity()+1e-12 {
		t.Error("2oo2 sensitivity above a single tool")
	}
	// Specificity ordering is the mirror image.
	if vote2.Specificity() < confA.Specificity()-1e-12 ||
		vote2.Specificity() < confB.Specificity()-1e-12 {
		t.Error("2oo2 specificity below a single tool")
	}
}

// TestPaperShapeHolds asserts the paper's orderings, not its absolute
// counts, on one simulated day of each of sixteen seeds: the shape must be
// a property of the generator, not of one seed. Both sides must also alert
// alone somewhere, or the pair shows no two-sided diversity.
func TestPaperShapeHolds(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			scale := CIScale
			scale.Seed = seed
			r, err := Execute(scale)
			if err != nil {
				t.Fatal(err)
			}
			c := r.Table.Pair(0, 1)
			if c.Both <= c.Neither {
				t.Errorf("shape: Both %d should dominate Neither %d", c.Both, c.Neither)
			}
			if c.Neither <= c.AOnly {
				t.Errorf("shape: Neither %d should exceed single-tool buckets (A-only %d)", c.Neither, c.AOnly)
			}
			if c.AOnly <= c.BOnly {
				t.Errorf("shape: commercial-only %d should exceed behavioural-only %d (paper: 43,648 vs 9,305)",
					c.AOnly, c.BOnly)
			}
			if c.BOnly == 0 {
				t.Error("shape: no behavioural-only alert (paper: 9,305)")
			}
			// Commercial tool alerts more in total (paper: 1.275M vs 1.241M).
			if c.TotalA() <= c.TotalB() {
				t.Errorf("shape: A's alert total %d should exceed B's %d", c.TotalA(), c.TotalB())
			}
		})
	}
}

func TestTablesRender(t *testing.T) {
	r := run(t)
	builders := map[string]func(*Run) *report.Table{
		"t1": Table1, "t2": Table2, "t3": Table3, "t4": Table4,
		"t5": Table5, "t6": Table6, "t8": Table8, "t9": Table9, "t10": Table10,
	}
	for name, build := range builders {
		tbl := build(r)
		out := tbl.String()
		if out == "" || tbl.Rows() == 0 {
			t.Errorf("%s rendered empty", name)
		}
	}
	// Table 1 carries the paper's reference numbers.
	if !strings.Contains(Table1(r).String(), "1,469,744") {
		t.Error("Table 1 missing the paper total")
	}
	if !strings.Contains(Table2(r).String(), "1,231,408") {
		t.Error("Table 2 missing the paper Both count")
	}
}

func TestExecuteDeterministic(t *testing.T) {
	a, err := Execute(BenchScale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(BenchScale)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Table, b.Table) {
		t.Error("identical scales produced different results")
	}
}

func TestExecuteTopologies(t *testing.T) {
	run, err := Execute(Scale{Name: "tiny", Duration: BenchScale.Duration / 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	results, err := ExecuteTopologies(run)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d topologies, want 6", len(results))
	}
	byName := map[string]TopologyResult{}
	for _, r := range results {
		byName[r.Name] = r
		if r.Conf.Total() == 0 {
			t.Errorf("%s processed nothing", r.Name)
		}
	}
	// Serial arrangements never inspect more with the second detector
	// than the first; parallel inspects everything with both.
	for _, r := range results {
		if strings.HasPrefix(r.Name, "parallel") {
			if r.Costs[0].Inspected != r.Costs[1].Inspected {
				t.Errorf("%s costs unequal: %+v", r.Name, r.Costs)
			}
			continue
		}
		if r.Costs[1].Inspected > r.Costs[0].Inspected {
			t.Errorf("%s: second stage inspected %d of %d", r.Name,
				r.Costs[1].Inspected, r.Costs[0].Inspected)
		}
	}
	// OR forwards the filter's non-alerts, AND forwards its alerts: over
	// identical traffic and identical filter state the two cascades'
	// second-stage loads partition the stream exactly.
	or := byName["serial sentinel→arcane OR"]
	and := byName["serial sentinel→arcane AND"]
	if or.Costs[1].Inspected+and.Costs[1].Inspected != or.Costs[0].Inspected {
		t.Errorf("cascade second stages do not partition: OR %d + AND %d != %d",
			or.Costs[1].Inspected, and.Costs[1].Inspected, or.Costs[0].Inspected)
	}
	if tbl := Table7(results); tbl.Rows() != 6 {
		t.Errorf("Table7 rows = %d", tbl.Rows())
	}
}

func TestPaperReferenceConsistency(t *testing.T) {
	// The transcribed paper constants must be internally consistent.
	p2 := PaperTable2
	if p2.Both+p2.Neither+p2.ArcaneOnly+p2.DistilOnly != PaperTable1.Total {
		t.Error("paper Table 2 cells do not sum to Table 1 total")
	}
	if p2.Both+p2.DistilOnly != PaperTable1.Distil {
		t.Error("paper Distil marginal inconsistent")
	}
	if p2.Both+p2.ArcaneOnly != PaperTable1.Arcane {
		t.Error("paper Arcane marginal inconsistent")
	}
	sum := func(rows []PaperStatusCount) uint64 {
		var total uint64
		for _, r := range rows {
			total += r.Count
		}
		return total
	}
	if sum(PaperTable3Arcane) != PaperTable1.Arcane {
		t.Error("paper Table 3 Arcane column does not sum to its total")
	}
	if sum(PaperTable3Distil) != PaperTable1.Distil {
		t.Error("paper Table 3 Distil column does not sum to its total")
	}
	if sum(PaperTable4Arcane) != p2.ArcaneOnly {
		t.Error("paper Table 4 Arcane column does not sum to Arcane-only")
	}
	if sum(PaperTable4Distil) != p2.DistilOnly {
		t.Error("paper Table 4 Distil column does not sum to Distil-only")
	}
}

// checkVotes holds a three-detector run's votes to monotonicity:
// sensitivity non-increasing, specificity non-decreasing in k.
func checkVotes(t *testing.T, run *TrioRun) {
	t.Helper()
	if run.Table.Total() == 0 {
		t.Fatal("empty three-detector run")
	}
	for k := 2; k <= 3; k++ {
		prev, cur := run.Table.Vote(k-1), run.Table.Vote(k)
		if cur.Sensitivity() > prev.Sensitivity()+1e-12 {
			t.Errorf("sensitivity increased from %doo3 to %doo3", k-1, k)
		}
		if cur.Specificity() < prev.Specificity()-1e-12 {
			t.Errorf("specificity decreased from %doo3 to %doo3", k-1, k)
		}
	}
}

func TestExecuteThreeWay(t *testing.T) {
	run, err := ExecuteThreeWay(BenchScale)
	if err != nil {
		t.Fatal(err)
	}
	checkVotes(t, run)
	if Table11(run).Rows() == 0 {
		t.Error("table 11 empty")
	}
}

// The sharded measurement pass must reproduce the sequential pass exactly
// at any shard count, across the full accumulator set (status/archetype
// breakdowns and ROC grids included, which the facade's Summary does not
// carry): every accumulator the tables are built from is order-sensitive
// only through detector state, which the key-partitioned pipeline
// preserves.
func TestExecuteShardedMatchesSequential(t *testing.T) {
	seq, err := Execute(BenchScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3, 4} {
		shard, err := ExecuteOpts(BenchScale, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shard.Table, seq.Table) {
			t.Errorf("shards=%d: agreement table differs: %+v vs %+v", shards, shard.Table, seq.Table)
		}
		if !reflect.DeepEqual(shard.Status, seq.Status) {
			t.Errorf("shards=%d: status breakdown differs", shards)
		}
		if !reflect.DeepEqual(shard.ByArch, seq.ByArch) {
			t.Errorf("shards=%d: archetype breakdown differs", shards)
		}
		if shard.ConfWeighted != seq.ConfWeighted {
			t.Errorf("shards=%d: weighted confusion matrix differs", shards)
		}
		if shard.ROCA.AUC() != seq.ROCA.AUC() || shard.ROCB.AUC() != seq.ROCB.AUC() {
			t.Errorf("shards=%d: ROC accumulators differ", shards)
		}
	}
}

func TestExecuteTrajectory(t *testing.T) {
	run, err := ExecuteTrajectory(BenchScale)
	if err != nil {
		t.Fatal(err)
	}
	checkVotes(t, run)
	if run.Weighted.Total() != run.Table.Total() {
		t.Error("weighted confusion incomplete")
	}
	// Every pair must exhibit some discordance — three identical channels
	// would make the whole experiment moot.
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if diversity.McNemarFromCorrectness(run.Table.Correctness(i, j)).Discordant == 0 {
				t.Errorf("pair %s/%s never disagrees", run.Names[i], run.Names[j])
			}
		}
	}
	if Table13(run).Rows() == 0 || Table13Diversity(run).Rows() == 0 {
		t.Error("table 13 empty")
	}
}

// The E13 measurement is a pure function of (seed, duration): two runs
// must agree field-for-field, which is what makes the report
// byte-reproducible.
func TestExecuteTrajectoryDeterministic(t *testing.T) {
	a, err := ExecuteTrajectory(BenchScale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecuteTrajectory(BenchScale)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two E13 runs differ:\n a: %+v\n b: %+v", a, b)
	}
}
