package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"divscrape/internal/sitemodel"
	"divscrape/internal/workload"
)

// writeDataset generates a small labelled dataset into dir.
func writeDataset(t *testing.T, dir string) (logPath, labelPath string) {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{Seed: 13, Duration: 90 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	logPath = filepath.Join(dir, "access.log")
	labelPath = filepath.Join(dir, "labels.csv")
	lf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	gf, err := os.Create(labelPath)
	if err != nil {
		t.Fatal(err)
	}
	defer gf.Close()
	if _, err := workload.WriteDataset(gen, lf, gf); err != nil {
		t.Fatal(err)
	}
	return logPath, labelPath
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	logPath, labelPath := writeDataset(t, dir)
	outPath := filepath.Join(dir, "verdicts.csv")

	for _, mode := range []string{"seq", "shard"} {
		var sb strings.Builder
		err := run(&sb, []string{
			"-log", logPath, "-labels", labelPath, "-mode", mode, "-out", outPath,
		})
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		out := sb.String()
		for _, want := range []string{"Alert diversity", "Both tools", "Labelled metrics", "Sensitivity"} {
			if !strings.Contains(out, want) {
				t.Errorf("mode %s: output missing %q", mode, want)
			}
		}
	}

	verdicts, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(verdicts)), "\n")
	if lines[0] != "seq,sentinel_alert,sentinel_score,arcane_alert,arcane_score" {
		t.Errorf("verdict header = %q", lines[0])
	}
	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	logLines := strings.Count(string(logBytes), "\n")
	if len(lines)-1 != logLines {
		t.Errorf("verdict rows %d != log lines %d", len(lines)-1, logLines)
	}
}

// The -parallel flag selects the sharded pipeline; every table it prints
// must match the sequential run exactly, only the summary header differs.
func TestRunParallelFlag(t *testing.T) {
	dir := t.TempDir()
	logPath, labelPath := writeDataset(t, dir)

	var seq strings.Builder
	if err := run(&seq, []string{"-log", logPath, "-labels", labelPath, "-parallel", "0"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(seq.String(), "mode=seq, shards=1") {
		t.Errorf("-parallel 0 did not run sequentially:\n%s", firstLine(seq.String()))
	}

	var shard strings.Builder
	if err := run(&shard, []string{"-log", logPath, "-labels", labelPath, "-parallel", "3"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(shard.String(), "mode=shard, shards=3") {
		t.Errorf("-parallel 3 summary missing shard count:\n%s", firstLine(shard.String()))
	}

	// Everything below the timing header must be byte-identical.
	if tablesOf(seq.String()) != tablesOf(shard.String()) {
		t.Errorf("sharded tables differ from sequential:\n--- seq ---\n%s\n--- shard ---\n%s",
			tablesOf(seq.String()), tablesOf(shard.String()))
	}

	if err := run(&shard, []string{"-log", logPath, "-parallel", "-1"}); err == nil {
		t.Error("negative -parallel accepted")
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// tablesOf strips the run-dependent timing header, keeping the tables.
func tablesOf(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// The -mitigate flag replays a response policy over the decision stream;
// the detection tables must be unchanged and the replay table present.
func TestRunMitigateFlag(t *testing.T) {
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)

	var plain strings.Builder
	if err := run(&plain, []string{"-log", logPath, "-parallel", "0"}); err != nil {
		t.Fatal(err)
	}
	var mit strings.Builder
	if err := run(&mit, []string{"-log", logPath, "-parallel", "0", "-mitigate", "graduated"}); err != nil {
		t.Fatal(err)
	}
	out := mit.String()
	for _, want := range []string{"Mitigation replay (graduated", "Tarpit", "Challenge", "Block"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "Alert diversity") {
		t.Error("detection tables missing from mitigate run")
	}
	// The replay must classify something: a dataset with scrapers cannot
	// be all-Allow under the graduated policy.
	if tableCount(t, out, "Tarpit")+tableCount(t, out, "Challenge")+tableCount(t, out, "Block") == 0 {
		t.Error("graduated replay took no adverse action on a scraper-bearing log")
	}

	var sb strings.Builder
	if err := run(&sb, []string{"-log", logPath, "-mitigate", "warp"}); err == nil {
		t.Error("invalid -mitigate accepted")
	}
}

// tableCount extracts the Count cell of the named row from rendered
// report output, tolerant of column widths.
func tableCount(t *testing.T, out, row string) int {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == row {
			n, err := strconv.Atoi(strings.ReplaceAll(fields[1], ",", ""))
			if err != nil {
				t.Fatalf("row %q count %q not numeric", row, fields[1])
			}
			return n
		}
	}
	t.Fatalf("row %q not found in output:\n%s", row, out)
	return 0
}

func TestRunWithoutLabels(t *testing.T) {
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	var sb strings.Builder
	if err := run(&sb, []string{"-log", logPath}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "Labelled metrics") {
		t.Error("labelled metrics printed without labels")
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, []string{"-log", "/does/not/exist"}); err == nil {
		t.Error("missing log accepted")
	}
	if err := run(&sb, []string{"-mode", "warp"}); err == nil {
		t.Error("invalid mode accepted")
	}

	// A label sidecar shorter than the log must be reported.
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	short := filepath.Join(dir, "short.csv")
	if err := os.WriteFile(short, []byte("seq,actor_id,archetype\n0,1,human\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&sb, []string{"-log", logPath, "-labels", short}); err == nil {
		t.Error("truncated label sidecar accepted")
	}

	// The two retired modes are rejected by name, and shard mode catches
	// the truncated sidecar under per-shard delivery too.
	for _, mode := range []string{"conc", "relaxed"} {
		err := run(&sb, []string{"-log", logPath, "-mode", mode})
		if err == nil || !strings.Contains(err.Error(), "-mode shard") {
			t.Errorf("-mode %s: error = %v, want a pointer to -mode shard", mode, err)
		}
	}
	if err := run(&sb, []string{"-log", logPath, "-mode", "shard", "-parallel", "3", "-labels", short}); err == nil {
		t.Error("per-shard run accepted truncated label sidecar")
	}
	if err := run(&sb, []string{"-log", logPath, "-parse-workers", "-1"}); err == nil {
		t.Error("negative -parse-workers accepted")
	}
	if err := run(&sb, []string{"-log", logPath, "-follow", "-parse-workers", "2"}); err == nil {
		t.Error("-parse-workers accepted with -follow")
	}
}

// The -detectors flag swaps the detector set end to end: three-way runs
// print three-way tables and a three-column verdict CSV, mitigation uses
// a 2-of-3 quorum without erroring, modes agree with each other, and bad
// selections are rejected up front.
func TestRunDetectorsFlag(t *testing.T) {
	dir := t.TempDir()
	logPath, labelPath := writeDataset(t, dir)
	outPath := filepath.Join(dir, "verdicts3.csv")

	var seq strings.Builder
	err := run(&seq, []string{
		"-log", logPath, "-labels", labelPath,
		"-detectors", "sentinel,arcane,trajectory",
		"-mode", "seq", "-out", outPath, "-mitigate", "graduated",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := seq.String()
	for _, want := range []string{
		"All tools", "None",
		"sentinel only", "arcane only", "trajectory only",
		"Labelled metrics", "Mitigation replay",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("three-way output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Both tools") {
		t.Error("three-way run printed the pair-shaped row label")
	}

	verdicts, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(strings.TrimSpace(string(verdicts)), "\n", 2)[0]
	want := "seq,sentinel_alert,sentinel_score,arcane_alert,arcane_score,trajectory_alert,trajectory_score"
	if header != want {
		t.Errorf("verdict header = %q, want %q", header, want)
	}

	// A sharded run must print the identical tables (headers aside)
	// under either delivery — per shard when only the order-free tables
	// are asked for, ordered when the CSV and the ladder are — and the
	// ordered extras must equal the sequential run's byte for byte.
	tablesOf := func(s string) string {
		i := strings.Index(s, "Alert diversity")
		if i < 0 {
			t.Fatalf("no diversity table in output:\n%s", s)
		}
		return s[i:]
	}
	var plain strings.Builder
	err = run(&plain, []string{
		"-log", logPath, "-labels", labelPath,
		"-detectors", "sentinel,arcane,trajectory", "-mode", "seq",
	})
	if err != nil {
		t.Fatal(err)
	}
	var perShard strings.Builder
	err = run(&perShard, []string{
		"-log", logPath, "-labels", labelPath,
		"-detectors", "sentinel,arcane,trajectory",
		"-mode", "shard", "-parallel", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tablesOf(perShard.String()), tablesOf(plain.String()); got != want {
		t.Errorf("per-shard tables differ from sequential:\n got:\n%s\n want:\n%s", got, want)
	}
	shardOut := filepath.Join(dir, "verdicts3-shard.csv")
	var ordered strings.Builder
	err = run(&ordered, []string{
		"-log", logPath, "-labels", labelPath,
		"-detectors", "sentinel,arcane,trajectory",
		"-mode", "shard", "-parallel", "3", "-out", shardOut, "-mitigate", "graduated",
		"-trace-out", filepath.Join(dir, "trace3.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tablesOf(ordered.String()), tablesOf(seq.String()); got != want {
		t.Errorf("ordered shard tables differ from sequential:\n got:\n%s\n want:\n%s", got, want)
	}
	shardVerdicts, err := os.ReadFile(shardOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shardVerdicts, verdicts) {
		t.Error("ordered shard verdict CSV differs from the sequential run's")
	}

	var sb strings.Builder
	if err := run(&sb, []string{"-log", logPath, "-detectors", "sentinel,arcana"}); err == nil {
		t.Error("unknown detector name accepted")
	}
	if err := run(&sb, []string{"-log", logPath, "-detectors", "arcane,arcane"}); err == nil {
		t.Error("duplicate detector accepted")
	}
	if err := run(&sb, []string{"-log", logPath, "-detectors", " , "}); err == nil {
		t.Error("empty detector list accepted")
	}
}

// A query string on the challenge beacon must not hide it from the ladder:
// the sink classifies by the enricher's path class, as sentinel does, so
// POST /__verify?cb=1 is still a passed challenge and never reaches Apply.
func TestRunMitigateSeesChallengeBeaconBehindQuery(t *testing.T) {
	// Six hours from midnight: long enough for browsers to be challenged.
	gen, err := workload.NewGenerator(workload.Config{Seed: 9, Duration: 6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if _, err := workload.WriteDataset(gen, &log, io.Discard); err != nil {
		t.Fatal(err)
	}
	const beacon = "POST " + sitemodel.ChallengeVerifyPath + " HTTP"
	if !strings.Contains(log.String(), beacon) {
		t.Fatal("the dataset holds no challenge beacon to rewrite")
	}
	dir := t.TempDir()
	logPath, queryPath := filepath.Join(dir, "access.log"), filepath.Join(dir, "query.log")
	queryLog := strings.ReplaceAll(log.String(), beacon, "POST "+sitemodel.ChallengeVerifyPath+"?cb=1 HTTP")
	for path, content := range map[string]string{logPath: log.String(), queryPath: queryLog} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	table := func(path string) string {
		var sb strings.Builder
		if err := run(&sb, []string{"-log", path, "-parallel", "0", "-mitigate", "graduated"}); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		return out[strings.Index(out, "Mitigation replay"):]
	}
	plain, query := table(logPath), table(queryPath)
	if regexp.MustCompile(`Challenges passed\s+0\s`).MatchString(plain) {
		t.Fatalf("the query-less run passed no challenge:\n%s", plain)
	}
	if query != plain {
		t.Errorf("the mitigation table moved when the beacons grew a query string:\n%s\nwithout:\n%s", query, plain)
	}
}
