package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Golden-file regression tests: the summary tables are the tool's user
// interface, and formatting drift (column widths, row order, new rows)
// should show up in review as a readable diff, not as a silent change.
// Regenerate with:
//
//	go test ./cmd/scrapedetect -run TestGolden -update
//
// The committed input dataset (testdata/access.log + labels.csv) is a
// fixture, generated once with `scrapegen -seed 13 -hours 0.75`; it is
// deliberately NOT regenerated by -update, so golden diffs always come
// from formatting or detector changes, never from a shifting input.
var update = flag.Bool("update", false, "rewrite golden files")

// timingLine matches the run-dependent header ("analysed N requests in
// 12ms (183214 req/s, ...)"); wall time and rate are scrubbed, the
// request count and mode/shard suffix are kept — they are part of the
// contract.
var timingLine = regexp.MustCompile(`in [0-9a-zµ.]+ \([0-9]+ req/s`)

func scrubTiming(out string) string {
	return timingLine.ReplaceAllString(out, "in ELAPSED (RATE req/s")
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
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
		t.Errorf("output differs from %s (re-run with -update if the change is intended)\n--- got ---\n%s\n--- want ---\n%s",
			path, got, string(want))
	}
}

func TestGoldenSummary(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, []string{
		"-log", "testdata/access.log",
		"-labels", "testdata/labels.csv",
		"-parallel", "0",
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "summary.golden", scrubTiming(sb.String()))
}

// Three detectors name the agreement table's rows "All tools" and "None"
// and give every side an "only" row and a labelled column.
func TestGoldenSummaryThreeDetectors(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, []string{
		"-log", "testdata/access.log",
		"-labels", "testdata/labels.csv",
		"-detectors", "sentinel,arcane,trajectory",
		"-parallel", "0",
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "summary_trio.golden", scrubTiming(sb.String()))
}

func TestGoldenSummaryWithMitigation(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, []string{
		"-log", "testdata/access.log",
		"-parallel", "0",
		"-mitigate", "graduated",
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "mitigate.golden", scrubTiming(sb.String()))
}

// The sharded pipeline must render byte-identically to the sequential
// golden below the timing header — the golden file therefore also pins
// cross-mode equivalence at the CLI level. (-out makes this the ordered
// delivery; the per-shard one is the next test's.)
func TestGoldenShardedMatchesSequential(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, []string{
		"-log", "testdata/access.log",
		"-labels", "testdata/labels.csv",
		"-parallel", "3",
		"-out", filepath.Join(t.TempDir(), "verdicts.csv"),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "summary.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if tablesOf(scrubTiming(sb.String())) != tablesOf(string(want)) {
		t.Errorf("sharded tables differ from sequential golden:\n%s", sb.String())
	}
}

// With no ordered output asked for, shard mode delivers per shard and
// abandons cross-client delivery order, but every summary table is an
// order-free count — so below the timing header the output must still
// match the sequential golden byte for byte, at any shard count and with
// the parallel parser in front.
func TestGoldenRelaxedMatchesSequential(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "summary.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-mode", "shard", "-parallel", "1"},
		{"-mode", "shard", "-parallel", "3"},
		{"-mode", "shard", "-parallel", "8", "-parse-workers", "2"},
	} {
		var sb strings.Builder
		err := run(&sb, append([]string{
			"-log", "testdata/access.log",
			"-labels", "testdata/labels.csv",
		}, args...))
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if tablesOf(scrubTiming(sb.String())) != tablesOf(string(want)) {
			t.Errorf("%v: per-shard tables differ from sequential golden:\n%s", args, sb.String())
		}
	}
}

// The parallel parser must not change the verdict stream: same tables,
// any worker count, in the default sharded mode too.
func TestGoldenParseWorkersMatchesSequential(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "summary.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err = run(&sb, []string{
		"-log", "testdata/access.log",
		"-labels", "testdata/labels.csv",
		"-parallel", "0",
		"-parse-workers", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
	if tablesOf(scrubTiming(sb.String())) != tablesOf(string(want)) {
		t.Errorf("parse-workers tables differ from sequential golden:\n%s", sb.String())
	}
}
