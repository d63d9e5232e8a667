package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// countLines returns the number of newline-terminated records in a file.
func countLines(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n := 0
	for sc.Scan() {
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// Follow mode over a fully written log with -max-events set to its exact
// line count consumes every entry, then stops cleanly and prints the same
// tables a replay would, plus the follow summary line.
func TestRunFollowConsumesAndStops(t *testing.T) {
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	lines := countLines(t, logPath)

	var followOut strings.Builder
	err := run(&followOut, []string{
		"-follow", "-log", logPath, "-parallel", "0",
		"-max-events", strconv.Itoa(lines),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := followOut.String()
	if !strings.Contains(out, "follow: rotations=0") {
		t.Errorf("follow summary line missing:\n%s", firstLine(out))
	}
	if !strings.Contains(out, "Alert diversity") {
		t.Error("diversity table missing from follow run")
	}

	// The tables must match a plain replay byte for byte.
	var replayOut strings.Builder
	if err := run(&replayOut, []string{"-log", logPath, "-parallel", "0"}); err != nil {
		t.Fatal(err)
	}
	followTables := out[strings.Index(out, "Alert diversity"):]
	replayTables := replayOut.String()[strings.Index(replayOut.String(), "Alert diversity"):]
	if followTables != replayTables {
		t.Errorf("follow tables differ from replay:\n--- follow ---\n%s\n--- replay ---\n%s",
			followTables, replayTables)
	}
}

// Periodic checkpointing in follow mode writes a loadable state file, and
// a replay resumed from it continues the verdict stream (seq numbers keep
// counting from the checkpoint).
func TestRunFollowPeriodicCheckpoint(t *testing.T) {
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	lines := countLines(t, logPath)
	ckpt := filepath.Join(dir, "state.bin")

	var sb strings.Builder
	err := run(&sb, []string{
		"-follow", "-log", logPath, "-parallel", "0",
		"-max-events", strconv.Itoa(lines),
		"-checkpoint", ckpt, "-checkpoint-every", "500",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "checkpoints=") {
		t.Errorf("follow summary missing checkpoint count:\n%s", sb.String())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint file not written: %v", err)
	}

	// The checkpoint is a valid -load-state input: replaying a second log
	// on top of it must succeed and carry the sequence forward.
	outPath := filepath.Join(dir, "verdicts.csv")
	if err := run(&sb, []string{
		"-log", logPath, "-parallel", "0", "-load-state", ckpt, "-out", outPath,
	}); err != nil {
		t.Fatalf("resume from follow checkpoint: %v", err)
	}
	verdicts, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(verdicts)), "\n")
	// Row 1 (after the header) continues the checkpointed sequence.
	if len(rows) < 2 || !strings.HasPrefix(rows[1], strconv.Itoa(lines)+",") {
		t.Errorf("resumed verdict stream does not continue the sequence: %q", rows[1])
	}
}

func TestRunFollowFlagValidation(t *testing.T) {
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	var sb strings.Builder
	if err := run(&sb, []string{"-log", logPath, "-window", "-5m"}); err == nil {
		t.Error("negative -window accepted")
	}
	if err := run(&sb, []string{
		"-log", logPath, "-checkpoint", filepath.Join(dir, "c.bin"), "-checkpoint-every", "0",
	}); err == nil {
		t.Error("zero -checkpoint-every accepted")
	}
}

// A replay with -window enabled (eviction on) produces the same tables as
// one without: the CLI face of the eviction-equivalence property.
func TestRunWindowedReplayMatchesPlain(t *testing.T) {
	dir := t.TempDir()
	logPath, labelPath := writeDataset(t, dir)
	var plain, windowed strings.Builder
	if err := run(&plain, []string{"-log", logPath, "-labels", labelPath, "-parallel", "0"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&windowed, []string{
		"-log", logPath, "-labels", labelPath, "-parallel", "0", "-window", "2h",
	}); err != nil {
		t.Fatal(err)
	}
	if tablesOf(plain.String()) != tablesOf(windowed.String()) {
		t.Errorf("windowed replay tables differ:\n--- plain ---\n%s\n--- windowed ---\n%s",
			tablesOf(plain.String()), tablesOf(windowed.String()))
	}
}
