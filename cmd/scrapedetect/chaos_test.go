package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"divscrape/internal/checkpoint"
	"divscrape/internal/faultinject"
	"divscrape/internal/shard"
)

// TestChaosKillAndRestoreResumesFromIntactGeneration is the CLI-level
// crash drill: a run writing periodic checkpoints is "killed" with its
// newest generation torn mid-write (simulated by truncating it), and
// the restarted process must fall back to the next generation and
// resume — producing a stitched verdict CSV byte-identical to one
// uninterrupted run for the surviving prefix.
func TestChaosKillAndRestoreResumesFromIntactGeneration(t *testing.T) {
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)

	// Split at a multiple of -checkpoint-every, so the last periodic
	// checkpoint (surviving at generation 1 after the final save rotates
	// it down) covers exactly the head's events and the tail resumes
	// without a gap.
	const every = 40
	const k = 3 * every
	headLog := filepath.Join(dir, "head.log")
	tailLog := filepath.Join(dir, "tail.log")
	splitLog(t, logPath, k, headLog, tailLog)

	fullCSV := filepath.Join(dir, "full.csv")
	var full strings.Builder
	if err := run(&full, []string{"-log", logPath, "-out", fullCSV, "-parallel", "0"}); err != nil {
		t.Fatal(err)
	}

	state := filepath.Join(dir, "chaos.state")
	headCSV := filepath.Join(dir, "head.csv")
	var head strings.Builder
	err := run(&head, []string{
		"-log", headLog, "-out", headCSV, "-parallel", "0",
		"-checkpoint", state, "-checkpoint-every", "40",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three periodic checkpoints plus the final one rotated through three
	// retained generations; both gen 0 (final) and gen 1 (periodic at
	// event k) snapshot the identical post-head state.
	for gen := 0; gen <= 1; gen++ {
		if _, err := os.Stat(checkpoint.GenPath(state, gen)); err != nil {
			t.Fatalf("generation %d missing after head run: %v", gen, err)
		}
	}

	// The "kill": the newest generation is torn as if the process died
	// mid-write. Every older generation is untouched, exactly what the
	// saver's temp+rename protocol guarantees.
	data, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(state, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	tailCSV := filepath.Join(dir, "tail.csv")
	var tail strings.Builder
	err = run(&tail, []string{
		"-log", tailLog, "-out", tailCSV, "-parallel", "0", "-load-state", state,
	})
	if err != nil {
		t.Fatalf("resume after torn newest generation: %v", err)
	}

	fullOut := readFileT(t, fullCSV)
	headOut := readFileT(t, headCSV)
	tailOut := readFileT(t, tailCSV)
	_, tailBody, ok := strings.Cut(tailOut, "\n")
	if !ok {
		t.Fatal("tail CSV empty")
	}
	if stitched := headOut + tailBody; stitched != fullOut {
		t.Fatalf("kill-and-restore differs from uninterrupted run (%d vs %d bytes)",
			len(stitched), len(fullOut))
	}
}

// TestChaosKillWithAllGenerationsDamagedFailsLoudly: when no generation
// survives, the resume must refuse to start from invented state.
func TestChaosKillWithAllGenerationsDamagedFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	state := filepath.Join(dir, "doomed.state")
	var sb strings.Builder
	err := run(&sb, []string{
		"-log", logPath, "-parallel", "0",
		"-checkpoint", state, "-checkpoint-every", "40", "-max-events", "120",
	})
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen <= 2; gen++ {
		p := checkpoint.GenPath(state, gen)
		if _, err := os.Stat(p); err != nil {
			continue
		}
		if err := os.WriteFile(p, []byte("DVSCgarbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := run(&sb, []string{"-log", logPath, "-parallel", "0", "-load-state", state}); err == nil {
		t.Fatal("resume succeeded with every generation damaged")
	}
}

// sentinelColumns keeps each verdict CSV row's sequence number and the
// sentinel's two columns.
func sentinelColumns(t *testing.T, path string) []string {
	t.Helper()
	rows := strings.Split(strings.TrimSuffix(readFileT(t, path), "\n"), "\n")
	for i, row := range rows {
		fields := strings.Split(row, ",")
		rows[i] = strings.Join(fields[:3], ",")
	}
	return rows
}

// A replay whose arcane panics finishes the log in every mode: the report
// is printed, the verdict CSV holds every request with sentinel's columns
// those of a clean run, the state files are written, periodic checkpoints
// go on past the panic — and then the run fails, naming the panic.
func TestChaosReplayExitsNamingTheDetectorPanic(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	cleanCSV := filepath.Join(dir, "clean.csv")
	if err := run(io.Discard, []string{"-log", logPath, "-out", cleanCSV, "-parallel", "0"}); err != nil {
		t.Fatal(err)
	}
	want := sentinelColumns(t, cleanCSV)
	for _, c := range []struct {
		name string
		args []string
	}{
		{"seq", []string{"-parallel", "0"}},
		{"shard", []string{"-parallel", "3"}},
		{"per-shard", []string{"-parallel", "3", "-out", ""}},
		{"segments", []string{"-parallel", "0", "-checkpoint", filepath.Join(dir, "ck"), "-checkpoint-every", "40"}},
	} {
		args := c.args
		t.Run(c.name, func(t *testing.T) {
			csv, state := filepath.Join(dir, "v.csv"), filepath.Join(dir, "s.state")
			os.Remove(state)
			faultinject.Enable("shard.inspect.arcane", faultinject.Fault{Panic: "arcane bug", After: 30, Times: 1})
			var out strings.Builder
			err := run(&out, append([]string{"-log", logPath, "-out", csv, "-save-state", state}, args...))
			var pe *shard.PanicError
			if !errors.As(err, &pe) || pe.Side != "arcane" || pe.Value != "arcane bug" || !strings.Contains(err.Error(), "detector arcane panicked") {
				t.Fatalf("run returned %v", err)
			}
			if !strings.Contains(out.String(), "Alert diversity") {
				t.Fatalf("no report:\n%s", out.String())
			}
			if _, err := os.Stat(state); err != nil {
				t.Fatalf("no state file: %v", err)
			}
			if args[len(args)-1] == "" {
				return
			}
			if got := sentinelColumns(t, csv); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("sentinel's verdicts differ from a clean run's (%d vs %d rows)", len(got), len(want))
			}
		})
	}
}

// -follow keeps serving through a detector that panics on every request:
// while it sits out, the health document names it and divscrape_degraded
// reads 1; the tail goes on to its event bound, and the run then fails
// naming the panics.
func TestChaosFollowKeepsServingThroughADetectorPanic(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	lines := countLines(t, logPath)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	faultinject.Enable("shard.inspect.arcane", faultinject.Fault{Panic: "arcane bug", After: 30})
	csv := filepath.Join(dir, "v.csv")
	done := make(chan error, 1)
	go func() {
		done <- run(io.Discard, []string{"-follow", "-log", logPath, "-out", csv, "-parallel", "0",
			"-metrics-addr", addr, "-max-events", strconv.Itoa(lines + 1)})
	}()
	get := func(path string) string {
		res, err := http.Get("http://" + addr + path)
		if err != nil {
			return ""
		}
		defer res.Body.Close()
		return bodyString(t, res.Body)
	}
	for {
		var doc healthDoc
		if json.Unmarshal([]byte(get("/debug/divscrape/health")), &doc) == nil && !doc.Healthy &&
			doc.Detectors != nil && slices.Equal(doc.Detectors.Quarantined, []string{"arcane"}) &&
			strings.Contains(get("/debug/divscrape/metrics"), "\ndivscrape_degraded 1\n") {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("the follower stopped before reporting the quarantine: %v", err)
		default:
			runtime.Gosched()
		}
	}
	// One more line reaches the event bound.
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(readFileT(t, logPath), "\n")
	fmt.Fprintln(f, first)
	f.Close()
	err = <-done
	var pe *shard.PanicError
	if !errors.As(err, &pe) || pe.Side != "arcane" {
		t.Fatalf("run returned %v", err)
	}
	if n := countLines(t, csv); n != lines+2 {
		t.Fatalf("%d verdict rows for %d lines", n-1, lines+1)
	}
}
