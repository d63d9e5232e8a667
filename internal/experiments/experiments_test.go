package experiments

import (
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
	if r.Total == 0 {
		t.Fatal("empty run")
	}
	// The contingency cells partition the request stream.
	if r.Cont.Total() != r.Total {
		t.Errorf("contingency total %d != %d", r.Cont.Total(), r.Total)
	}
	// Confusion matrices account for every request.
	if r.ConfA.Total() != r.Total || r.ConfB.Total() != r.Total {
		t.Error("confusion totals inconsistent")
	}
	if r.Conf1oo2.Total() != r.Total || r.Conf2oo2.Total() != r.Total {
		t.Error("adjudicated totals inconsistent")
	}
	// Correctness table too.
	if r.Corr.Total() != r.Total {
		t.Error("correctness total inconsistent")
	}
	// ROC accumulators saw every request.
	posA, negA := r.ROCA.Totals()
	if posA+negA != r.Total {
		t.Error("ROC totals inconsistent")
	}
	// Marginal identities: alerts by A = TP_A + FP_A.
	if r.Cont.TotalA() != r.ConfA.TP+r.ConfA.FP {
		t.Error("A's alert marginal != confusion alerts")
	}
	if r.Cont.TotalB() != r.ConfB.TP+r.ConfB.FP {
		t.Error("B's alert marginal != confusion alerts")
	}
}

func TestAdjudicationIdentities(t *testing.T) {
	r := run(t)
	// 1oo2 alerts = Both + AOnly + BOnly; 2oo2 alerts = Both. These are
	// exact identities between the contingency table and the adjudicated
	// confusion matrices.
	alerts1 := r.Conf1oo2.TP + r.Conf1oo2.FP
	alerts2 := r.Conf2oo2.TP + r.Conf2oo2.FP
	if alerts1 != r.Cont.Both+r.Cont.AOnly+r.Cont.BOnly {
		t.Errorf("1oo2 alerts %d != contingency union %d",
			alerts1, r.Cont.Both+r.Cont.AOnly+r.Cont.BOnly)
	}
	if alerts2 != r.Cont.Both {
		t.Errorf("2oo2 alerts %d != Both %d", alerts2, r.Cont.Both)
	}
	// Sensitivity ordering: 1oo2 >= each single >= 2oo2 (set inclusion).
	if r.Conf1oo2.Sensitivity() < r.ConfA.Sensitivity()-1e-12 ||
		r.Conf1oo2.Sensitivity() < r.ConfB.Sensitivity()-1e-12 {
		t.Error("1oo2 sensitivity below a single tool")
	}
	if r.Conf2oo2.Sensitivity() > r.ConfA.Sensitivity()+1e-12 ||
		r.Conf2oo2.Sensitivity() > r.ConfB.Sensitivity()+1e-12 {
		t.Error("2oo2 sensitivity above a single tool")
	}
	// Specificity ordering is the mirror image.
	if r.Conf2oo2.Specificity() < r.ConfA.Specificity()-1e-12 ||
		r.Conf2oo2.Specificity() < r.ConfB.Specificity()-1e-12 {
		t.Error("2oo2 specificity below a single tool")
	}
}

func TestPaperShapeHolds(t *testing.T) {
	// Shape assertions at bench scale (the window starts at midnight so
	// the mix skews even more bot-heavy than the full capture; assert
	// orderings, not absolute counts).
	r := run(t)
	c := r.Cont
	if c.Both <= c.Neither {
		t.Error("shape: Both should dominate Neither")
	}
	if c.Neither <= c.AOnly {
		t.Error("shape: Neither should exceed single-tool buckets")
	}
	if c.AOnly <= c.BOnly {
		t.Error("shape: commercial-only should exceed behavioural-only (paper: 43,648 vs 9,305)")
	}
	// Commercial tool alerts more in total (paper: 1.275M vs 1.241M).
	if c.TotalA() <= c.TotalB() {
		t.Error("shape: A's alert total should exceed B's")
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
	if a.Total != b.Total || a.Cont != b.Cont || a.ConfA != b.ConfA || a.ConfB != b.ConfB {
		t.Error("identical scales produced different results")
	}
}

func TestExecuteTopologies(t *testing.T) {
	results, err := ExecuteTopologies(Scale{Name: "tiny", Duration: BenchScale.Duration / 3, Seed: 42})
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

func TestExecuteThreeWay(t *testing.T) {
	run, err := ExecuteThreeWay(BenchScale)
	if err != nil {
		t.Fatal(err)
	}
	if run.Total == 0 {
		t.Fatal("empty three-way run")
	}
	for i, c := range run.Singles {
		if c.Total() != run.Total {
			t.Errorf("detector %d confusion total %d != %d", i, c.Total(), run.Total)
		}
	}
	// Vote monotonicity: sensitivity non-increasing, specificity
	// non-decreasing in k.
	for k := 1; k < 3; k++ {
		if run.Votes[k].Sensitivity() > run.Votes[k-1].Sensitivity()+1e-12 {
			t.Errorf("sensitivity increased from %doo3 to %doo3", k, k+1)
		}
		if run.Votes[k].Specificity() < run.Votes[k-1].Specificity()-1e-12 {
			t.Errorf("specificity decreased from %doo3 to %doo3", k, k+1)
		}
	}
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
		if shard.Total != seq.Total {
			t.Fatalf("shards=%d: totals differ: sharded %d, sequential %d", shards, shard.Total, seq.Total)
		}
		if shard.Cont != seq.Cont {
			t.Errorf("shards=%d: contingency differs: %+v vs %+v", shards, shard.Cont, seq.Cont)
		}
		if !reflect.DeepEqual(shard.Status, seq.Status) {
			t.Errorf("shards=%d: status breakdown differs", shards)
		}
		if !reflect.DeepEqual(shard.ByArch, seq.ByArch) {
			t.Errorf("shards=%d: archetype breakdown differs", shards)
		}
		if shard.ConfA != seq.ConfA || shard.ConfB != seq.ConfB {
			t.Errorf("shards=%d: per-tool confusion matrices differ", shards)
		}
		if shard.Conf1oo2 != seq.Conf1oo2 || shard.Conf2oo2 != seq.Conf2oo2 || shard.ConfWeighted != seq.ConfWeighted {
			t.Errorf("shards=%d: adjudicated confusion matrices differ", shards)
		}
		if shard.Corr != seq.Corr {
			t.Errorf("shards=%d: correctness-agreement table differs", shards)
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
	if run.Total == 0 {
		t.Fatal("empty trajectory run")
	}
	for i, c := range run.Singles {
		if c.Total() != run.Total {
			t.Errorf("detector %d confusion total %d != %d", i, c.Total(), run.Total)
		}
	}
	if run.Weighted.Total() != run.Total {
		t.Error("weighted confusion incomplete")
	}
	// Vote monotonicity: sensitivity non-increasing, specificity
	// non-decreasing in k.
	for k := 1; k < 3; k++ {
		if run.Votes[k].Sensitivity() > run.Votes[k-1].Sensitivity()+1e-12 {
			t.Errorf("sensitivity increased from %doo3 to %doo3", k, k+1)
		}
		if run.Votes[k].Specificity() < run.Votes[k-1].Specificity()-1e-12 {
			t.Errorf("specificity decreased from %doo3 to %doo3", k, k+1)
		}
	}
	// Every pairwise table must partition the stream, and every pair must
	// exhibit some discordance — three identical channels would make the
	// whole experiment moot.
	for i, p := range run.Pairs {
		if p.Alerts.Total() != run.Total {
			t.Errorf("pair %d alert table total %d != %d", i, p.Alerts.Total(), run.Total)
		}
		if p.Correctness.Total() != run.Total {
			t.Errorf("pair %d correctness table total %d != %d", i, p.Correctness.Total(), run.Total)
		}
		if diversity.McNemarFromCorrectness(p.Correctness).Discordant == 0 {
			t.Errorf("pair %s/%s never disagrees", p.A, p.B)
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
