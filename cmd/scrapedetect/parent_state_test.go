package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"divscrape/internal/workload"
)

// testdata/parent-state/head.state was written by the commit before the
// detectors' product sets became bitmap blocks and sentinel's client record
// one value (8ecf6db), from a checkout of it:
//
//	go run ./cmd/scrapegen -seed 4 -hours 24 -out access.log -labels ''
//	head -n 92532 access.log > head.log      # the first half of 185064 lines
//	go run ./cmd/scrapedetect -log head.log -detectors sentinel,arcane,trajectory \
//	    -parallel 0 -save-state head.state
//
// At the split (12:23 of the simulated day) the live state holds a session
// that has enumerated 3351 distinct products and an office NAT address
// seen with 26 User-Agents — the two shapes whose in-memory form changed.
// The encoding did not: the file must load, write itself back byte for
// byte, and resume to the verdicts of a run that never stopped.
func TestParentWrittenStateResumes(t *testing.T) {
	const parentState = "testdata/parent-state/head.state"
	dets := []string{"-detectors", "sentinel,arcane,trajectory"}
	dir := t.TempDir()
	gen, err := workload.NewGenerator(workload.Config{Seed: 4, Duration: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if _, err := workload.WriteDataset(gen, &log, io.Discard); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(log.Bytes(), []byte("\n"))
	if lines = lines[:len(lines)-1]; len(lines) != 185064 {
		t.Fatalf("the generator wrote %d lines, the fixture was cut from 185064: regenerate it", len(lines))
	}
	write := func(name string, lines [][]byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fullLog, tailLog, emptyLog := write("full.log", lines), write("tail.log", lines[92532:]), write("empty.log", nil)
	scrapedetect := func(args ...string) {
		t.Helper()
		var out strings.Builder
		if err := run(&out, append(args, dets...)); err != nil {
			t.Fatal(err)
		}
	}

	// Loaded and saved again with nothing in between: the same bytes.
	again := filepath.Join(dir, "again.state")
	scrapedetect("-log", emptyLog, "-parallel", "0", "-load-state", parentState, "-save-state", again)
	if readFileT(t, again) != readFileT(t, parentState) {
		t.Error("the parent's state file, loaded and saved again, is not the same bytes")
	}

	// Resumed — at another shard count — the second half's verdicts are the
	// uninterrupted run's.
	fullCSV, tailCSV := filepath.Join(dir, "full.csv"), filepath.Join(dir, "tail.csv")
	scrapedetect("-log", fullLog, "-parallel", "0", "-out", fullCSV)
	scrapedetect("-log", tailLog, "-parallel", "3", "-load-state", parentState, "-out", tailCSV)
	full := strings.SplitAfter(readFileT(t, fullCSV), "\n")
	tail := strings.SplitAfter(readFileT(t, tailCSV), "\n")
	want := strings.Join(full[1+92532:], "") // past the header and the first half
	if got := strings.Join(tail[1:], ""); got != want {
		t.Errorf("resumed from the parent's state, the second half's verdict CSV differs from the uninterrupted run's (%d vs %d bytes)", len(got), len(want))
	}
}
