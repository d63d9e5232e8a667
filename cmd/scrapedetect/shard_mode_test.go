package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"divscrape/internal/workload"
)

// -mode shard hosts everything that needs per-client order at most — the
// ladder, periodic checkpoints, the -explain client's timeline — on its
// shards, and each must come out as the sequential pipeline's: the
// mitigation table, the -save-state bytes, every -checkpoint generation
// and the timeline with its feature vectors, at one, three and eight
// shards, for the paper's pair and for three detectors. (Shard mode used
// to refuse -checkpoint and -explain and to serialise -mitigate through
// the ordered delivery.) Under -window each shard sweeps its own enricher
// and detectors on its own cadence, and the same holds — without the
// ladder, whose block keeps a client idle past its IdleTTL until its own
// shard sweeps, so its bytes follow the shard count.
func TestShardModeLadderCheckpointsAndExplainEqualSequential(t *testing.T) {
	// Six hours from midnight: long enough for browsers to be challenged.
	gen, err := workload.NewGenerator(workload.Config{Seed: 9, Duration: 6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	logPath := filepath.Join(dir, "access.log")
	lf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.WriteDataset(gen, lf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}

	// One escalating client to explain: the first the ladder moves.
	tracePath := filepath.Join(dir, "flight.jsonl")
	var sb strings.Builder
	if err := run(&sb, []string{"-log", logPath, "-mode", "seq", "-mitigate", "graduated", "-trace-out", tracePath}); err != nil {
		t.Fatal(err)
	}
	client := ""
	for _, r := range readTraceRecords(t, tracePath) {
		if r.Sampled == "escalation" {
			client = r.Client
			break
		}
	}
	if client == "" {
		t.Fatal("the ladder escalated nobody")
	}

	type result struct {
		tables, timeline, state string
		generations             []string
	}
	replay := func(name, detectors string, mode ...string) result {
		t.Helper()
		out := filepath.Join(dir, name)
		if err := os.Mkdir(out, 0o755); err != nil {
			t.Fatal(err)
		}
		args := append([]string{"-log", logPath, "-detectors", detectors,
			"-save-state", filepath.Join(out, "final.state"),
			"-checkpoint", filepath.Join(out, "ck"), "-checkpoint-every", "5000", "-checkpoint-retain", "10",
			"-explain", client}, mode...)
		var sb strings.Builder
		if err := run(&sb, args); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		text := tablesOf(sb.String())
		cut := strings.Index(text, "provenance for ")
		if cut < 0 {
			t.Fatalf("%s: no timeline in the output", name)
		}
		res := result{tables: text[:cut], timeline: text[cut:], state: readFileT(t, filepath.Join(out, "final.state"))}
		files, err := filepath.Glob(filepath.Join(out, "ck*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			res.generations = append(res.generations, filepath.Base(f)+"\x00"+readFileT(t, f))
		}
		return res
	}
	for _, c := range []struct {
		detectors string
		flags     []string
	}{
		{"sentinel,arcane", []string{"-mitigate", "graduated"}},
		{"sentinel,arcane,trajectory", []string{"-mitigate", "graduated"}},
		{"sentinel,arcane,trajectory", []string{"-window", "2h"}},
	} {
		detectors, label := c.detectors, c.detectors+strings.Join(c.flags, "")
		mitigating := c.flags[0] == "-mitigate"
		want := replay("seq-"+label, detectors, append(c.flags, "-mode", "seq")...)
		// 27 655 lines cut every 5 000: five periodic generations and the final one.
		if len(want.generations) != 6 {
			t.Fatalf("%s: the sequential run kept %d checkpoint generations, want 6", label, len(want.generations))
		}
		if !strings.Contains(want.timeline, "features:") || mitigating && !strings.Contains(want.timeline, "[escalation]") {
			t.Fatalf("%s: the sequential timeline has no feature vectors or no escalation:\n%s", label, want.timeline)
		}
		if mitigating != strings.Contains(want.tables, "Mitigation replay") {
			t.Fatalf("%s: mitigation table present = %v:\n%s", label, !mitigating, want.tables)
		}
		for _, shards := range []string{"1", "3", "8"} {
			name := "shard" + shards + "-" + label
			got := replay(name, detectors, append(c.flags, "-mode", "shard", "-parallel", shards)...)
			if got.tables != want.tables {
				t.Errorf("%s: tables differ from the sequential run's:\n%s\nsequential:\n%s", name, got.tables, want.tables)
			}
			if got.state != want.state {
				t.Errorf("%s: -save-state bytes differ from the sequential run's", name)
			}
			if got.timeline != want.timeline {
				t.Errorf("%s: -explain timeline differs from the sequential run's:\n%s\nsequential:\n%s", name, got.timeline, want.timeline)
			}
			if len(got.generations) != len(want.generations) {
				t.Fatalf("%s: %d checkpoint generations, sequential kept %d", name, len(got.generations), len(want.generations))
			}
			for i := range want.generations {
				if got.generations[i] != want.generations[i] {
					t.Errorf("%s: checkpoint generation %d differs from the sequential run's", name, i)
				}
			}
		}
	}
}
