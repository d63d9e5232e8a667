package httpguard

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
	"divscrape/internal/statecodec"
	"divscrape/internal/workload"
)

// testdata/parent-state/{pair,trajectory}.state were written by the commit
// before the guard's shards held a []detector.Detector (2f22491), when
// snapshotShardsLocked still named its sentinel, arcane and trajectory
// fields one by one — from a checkout of it, with this file copied in:
//
//	go test ./httpguard -run TestParentWrittenGuardStateResumes -write-parent-state
//
// Each is a 3-shard graduated guard's SnapshotInto after the first
// parentStateSplit requests of parentStateEvents on the events' own clock.
// Regenerate them only from that commit: written by this build they would
// prove nothing.
var writeParentState = flag.Bool("write-parent-state", false,
	"write testdata/parent-state (only meaningful on the parent commit named in parent_state_test.go)")

const (
	parentStateSplit = 4000
	parentStateTotal = 8000
)

// parentStateEvents is a mix with every kind of client state live at the
// split: browsing humans mid-session (some past a solved challenge), a
// crawler, a monitor, and scrapers on every rung of the ladder.
func parentStateEvents(t *testing.T) []workload.Event {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{
		Seed:     20,
		Duration: 6 * time.Hour,
		Profile: workload.Profile{
			HumanVisitors:       150,
			HumanSessionsPerDay: 8,
			SearchCrawlers:      1,
			CrawlDuty:           0.2,
			CrawlDelay:          5 * time.Second,
			Monitors:            1,
			MonitorInterval:     4 * time.Minute,
			NaiveScrapers:       1,
			NaiveRate:           0.2,
			NaiveDuty:           0.5,
			AggressiveScrapers:  1,
			AggressiveRate:      2,
			AggressiveDuty:      0.05,
			HeadlessScrapers:    1,
			HeadlessRate:        0.3,
			HeadlessDuty:        0.3,
			StealthBots:         6,
			StealthSessionGap:   20 * time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < parentStateTotal {
		t.Fatalf("the generator wrote %d events, the fixtures were cut from the first %d: regenerate them", len(events), parentStateTotal)
	}
	return events[:parentStateTotal]
}

// parentStateGuard serves request i at events[i]'s timestamp, starting at
// start, and appends every decision's action to *actions.
func parentStateGuard(t *testing.T, shards int, traj bool, events []workload.Event, start int, actions *[]mitigate.Action) *Guard {
	t.Helper()
	i := start
	return newGuard(t, Config{
		Policy:           graduated(),
		EnableTrajectory: traj,
		Shards:           shards,
		Now:              func() time.Time { return events[min(i, len(events)-1)].Entry.Time },
		Sleep:            func(time.Duration) {},
		OnDecision: func(_ logfmt.Entry, _ Verdicts, d mitigate.Decision) {
			i++
			*actions = append(*actions, d.Action)
		},
	})
}

func guardSnapshot(t *testing.T, g *Guard) []byte {
	t.Helper()
	w := statecodec.NewWriter()
	g.SnapshotInto(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// A guard snapshot written before the shards were built from factories
// must restore into this build at another shard count and continue the
// action stream exactly as a guard that never stopped; and this build, at
// yet another shard count, must write the parent's bytes at the same
// point.
func TestParentWrittenGuardStateResumes(t *testing.T) {
	events := parentStateEvents(t)
	for _, tc := range []struct {
		name   string
		traj   bool
		shards int
	}{
		{"pair", false, 5},
		{"trajectory", true, 2},
	} {
		path := filepath.Join("testdata", "parent-state", tc.name+".state")
		if *writeParentState {
			var actions []mitigate.Action
			head := parentStateGuard(t, 3, tc.traj, events, 0, &actions)
			driveGuard(t, head, events[:parentStateSplit], nil, nil)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, guardSnapshot(t, head), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		parentState, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		var want []mitigate.Action
		ref := parentStateGuard(t, 4, tc.traj, events, 0, &want)
		driveGuard(t, ref, events[:parentStateSplit], nil, nil)
		if !bytes.Equal(guardSnapshot(t, ref), parentState) {
			t.Errorf("%s: this build's snapshot after %d requests is not the parent's bytes", tc.name, parentStateSplit)
		}
		driveGuard(t, ref, events[parentStateSplit:], nil, nil)

		var got []mitigate.Action
		tail := parentStateGuard(t, tc.shards, tc.traj, events, parentStateSplit, &got)
		if err := tail.RestoreFrom(statecodec.NewReader(parentState)); err != nil {
			t.Fatalf("%s: restoring the parent's snapshot: %v", tc.name, err)
		}
		if total := tail.StatsDetail().Total; total != parentStateSplit {
			t.Errorf("%s: restored Total = %d, want %d", tc.name, total, parentStateSplit)
		}
		driveGuard(t, tail, events[parentStateSplit:], nil, nil)
		want = want[parentStateSplit:]
		if len(got) != len(want) {
			t.Fatalf("%s: %d actions after the restore, want %d", tc.name, len(got), len(want))
		}
		rungs := map[mitigate.Action]int{}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: request %d after the restore: %v, the uninterrupted guard %v", tc.name, i, got[i], want[i])
			}
			rungs[want[i]]++
		}
		// The comparison means something only if the tail climbs the ladder.
		for _, a := range []mitigate.Action{mitigate.Allow, mitigate.Tarpit, mitigate.Challenge, mitigate.Block} {
			if rungs[a] == 0 {
				t.Errorf("%s: no %v among the %d actions after the split", tc.name, a, len(want))
			}
		}
	}
}
