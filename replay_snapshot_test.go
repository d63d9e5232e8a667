package divscrape_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"divscrape"
)

// testdata/replay-snapshot/{pair,trio}.snapshot were written by the commit
// before the DetectorSet judged through internal/shard (7ddb612), from a
// checkout of it with this file copied in:
//
//	go test . -run TestReplaySnapshotsMatchParent -write-replay-snapshots
//
// Each is Snapshot of a NewDetectorSet fed every event of seed 9, 6 h
// through InspectInto. Regenerate them only from that commit: written by
// this build they would prove nothing.
var writeReplaySnapshots = flag.Bool("write-replay-snapshots", false,
	"write testdata/replay-snapshot (only meaningful on the parent commit named in replay_snapshot_test.go)")

// TestReplaySnapshotsMatchParent: a set that replays a whole seeded
// dataset writes the same snapshot bytes as the parent's set did.
func TestReplaySnapshotsMatchParent(t *testing.T) {
	for _, fx := range []struct {
		file  string
		names []string
	}{
		{"pair.snapshot", nil},
		{"trio.snapshot", []string{"sentinel", "arcane", "trajectory"}},
	} {
		t.Run(fx.file, func(t *testing.T) {
			set, err := divscrape.NewDetectorSet(fx.names...)
			if err != nil {
				t.Fatal(err)
			}
			verdicts := make([]divscrape.Verdict, set.Len())
			if err := setGen(t, 9, 6*time.Hour).Run(func(ev divscrape.Event) error {
				set.InspectInto(ev.Entry, verdicts)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := divscrape.Snapshot(&got, set); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "replay-snapshot", fx.file)
			if *writeReplaySnapshots {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("snapshot after the replay is %d bytes that differ from the parent's %d", got.Len(), len(want))
			}
		})
	}
}
