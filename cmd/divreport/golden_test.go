package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Golden-file regression test for the experiment report: the tables are
// the reproduction's headline artefact, so formatting or numeric drift
// must surface as a reviewable diff. Regenerate with:
//
//	go test ./cmd/divreport -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// elapsedRe scrubs the only run-dependent text: the generation/scoring
// wall time on the dataset line.
var elapsedRe = regexp.MustCompile(`scored in [0-9a-zµ.]+`)

func TestGoldenReport(t *testing.T) {
	checkGolden(t, "report.golden", "-scale", "bench", "-exp", "e1,e2,e3,e4,e5,e6,e8,e9,e10")
}

// The 24 h ci scale is where the paper's two-sided diversity shows: at the
// 3 h bench scale no request is arcane-only and Table 4's arcane column is
// empty. Its Tables 1–4 (arcane-only 0.49 %, sentinel-only 4.12 %; the
// paper's 0.63 % and 2.97 %) are pinned here, in under a second.
func TestGoldenReportCI(t *testing.T) {
	checkGolden(t, "report_ci.golden", "-scale", "ci", "-exp", "e1,e2,e3,e4")
}

// E11 and E13 are the three-detector experiments: k-out-of-3 votes, the
// weighted fusion row and E13's pairwise diversity table.
func TestGoldenReportTrio(t *testing.T) {
	checkGolden(t, "report_trio.golden", "-scale", "bench", "-exp", "e11,e13")
}

// checkGolden runs divreport with args and compares the report, its
// wall time scrubbed, with testdata/name.
func checkGolden(t *testing.T, name string, args ...string) {
	t.Helper()
	var sb strings.Builder
	if err := run(&sb, args); err != nil {
		t.Fatal(err)
	}
	got := elapsedRe.ReplaceAllString(sb.String(), "scored in ELAPSED")

	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("report differs from %s (re-run with -update if the change is intended)\n--- got ---\n%s\n--- want ---\n%s",
			path, got, string(want))
	}
}
