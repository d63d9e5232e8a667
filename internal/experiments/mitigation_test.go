package experiments

import (
	"testing"

	"divscrape/internal/mitigate"
)

// The containment study needs the 24-hour window: the corporate-NAT lunch
// rush — the structural benign-alert source that prices static blocking —
// happens at midday and the 3-hour bench window ends before it.
var mitigationResults []MitigationResult

func mitigation(t *testing.T) []MitigationResult {
	t.Helper()
	if mitigationResults == nil {
		r, err := ExecuteMitigation(CIScale)
		if err != nil {
			t.Fatal(err)
		}
		mitigationResults = r
	}
	return mitigationResults
}

func findMitigation(t *testing.T, results []MitigationResult, policy, adj string) *MitigationResult {
	t.Helper()
	for i := range results {
		if results[i].Policy == policy && results[i].Adjudicator == adj {
			return &results[i]
		}
	}
	t.Fatalf("no %s/%s row", policy, adj)
	return nil
}

// TestMitigationAcceptance is the PR's end-to-end acceptance criterion:
// the Graduated policy contains the adaptive scrapers — strictly fewer
// pages leaked than Observe, a shorter productive-campaign window, and a
// human collateral rate below the static Block policy's.
func TestMitigationAcceptance(t *testing.T) {
	results := mitigation(t)
	observe := findMitigation(t, results, "observe", "1oo2")
	tag := findMitigation(t, results, "tag", "1oo2")
	block := findMitigation(t, results, "block", "1oo2")
	graduated := findMitigation(t, results, "graduated", "1oo2")

	// Observe and Tag serve everything: identical leakage, zero denials.
	if observe.Leaked != tag.Leaked || observe.Total != tag.Total {
		t.Errorf("observe leaked %d/%d, tag %d/%d — tagging should not change service",
			observe.Leaked, observe.Total, tag.Leaked, tag.Total)
	}
	if observe.Collateral != 0 || observe.Actions.Blocked != 0 {
		t.Errorf("observe denied requests: %+v", observe.Actions)
	}
	if observe.Leaked == 0 {
		t.Fatal("observe run leaked nothing; the workload carries no campaigns")
	}

	// Containment: graduated must strictly beat doing nothing.
	if graduated.Leaked >= observe.Leaked {
		t.Errorf("graduated leaked %d, observe %d — no containment", graduated.Leaked, observe.Leaked)
	}
	if graduated.MeanTimeToContain >= observe.MeanTimeToContain {
		t.Errorf("graduated mean containment %v not under observe's %v",
			graduated.MeanTimeToContain, observe.MeanTimeToContain)
	}
	// The ladder actually gets used: all three adverse rungs fire, and
	// some clients solve their way back down.
	if graduated.Actions.Tarpitted == 0 || graduated.Actions.Challenged == 0 || graduated.Actions.Blocked == 0 {
		t.Errorf("graduated ladder unused: %+v", graduated.Actions)
	}
	if graduated.ChallengesPassed == 0 {
		t.Error("nobody solved a challenge in the graduated run")
	}

	// Human cost: static blocking must misfire on real shoppers (that is
	// its known failure mode), and graduation must cost less.
	if block.Collateral == 0 {
		t.Fatal("static block produced no collateral; the comparison is vacuous")
	}
	if graduated.CollateralRate() >= block.CollateralRate() {
		t.Errorf("graduated collateral %.5f not below static block's %.5f",
			graduated.CollateralRate(), block.CollateralRate())
	}
}

// TestMitigationAdjudicatorTradeoff checks the K-out-of-N axis: requiring
// both tools (2oo2) before acting lowers collateral and raises leakage
// relative to either-tool (1oo2), for any enforcing policy.
func TestMitigationAdjudicatorTradeoff(t *testing.T) {
	results := mitigation(t)
	for _, policy := range []string{"block", "graduated"} {
		k1 := findMitigation(t, results, policy, "1oo2")
		k2 := findMitigation(t, results, policy, "2oo2")
		if k2.Leaked <= k1.Leaked {
			t.Errorf("%s: 2oo2 leaked %d <= 1oo2's %d; confirmation should trade leakage for precision",
				policy, k2.Leaked, k1.Leaked)
		}
		if k2.CollateralRate() > k1.CollateralRate() {
			t.Errorf("%s: 2oo2 collateral %.5f above 1oo2's %.5f",
				policy, k2.CollateralRate(), k1.CollateralRate())
		}
	}
}

// TestMitigationByteReproducible re-executes the full grid and requires
// identical results and an identical rendered table: the whole closed
// loop — generation, detection, adjudication, enforcement, adaptation —
// is a pure function of the seed.
func TestMitigationByteReproducible(t *testing.T) {
	first := mitigation(t)
	second, err := ExecuteMitigation(CIScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("row counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("row %d differs:\n  %+v\n  %+v", i, first[i], second[i])
		}
	}
	if a, b := TableMitigation(first).String(), TableMitigation(second).String(); a != b {
		t.Error("rendered tables differ between identical-seed runs")
	}
}

// TestMitigationSpecsSubset exercises the single-pass entry point used by
// callers that only want one policy.
func TestMitigationSpecsSubset(t *testing.T) {
	res, err := ExecuteMitigationSpecs(BenchScale, []MitigationSpec{
		{PolicyName: "graduated", Policy: mitigate.Graduated()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Policy != "graduated" || res[0].Adjudicator != "1oo2" {
		t.Fatalf("unexpected results: %+v", res)
	}
	r := res[0]
	if r.Total == 0 || r.MaliciousActors == 0 {
		t.Errorf("empty pass: %+v", r)
	}
	if r.Total != r.MaliciousRequests+r.BenignRequests {
		t.Errorf("partition broken: %d != %d+%d", r.Total, r.MaliciousRequests, r.BenignRequests)
	}
	if r.Actions.Total() != r.Total {
		t.Errorf("action tally %d does not cover all %d requests", r.Actions.Total(), r.Total)
	}
	if r.MeanTimeToContain < 0 || r.MeanTimeToContain > CIScale.Duration {
		t.Errorf("implausible containment time %v", r.MeanTimeToContain)
	}
}
