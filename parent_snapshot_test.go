package divscrape_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"divscrape"
)

// testdata/parent-snapshot/{pair,triple}.snapshot were written by the
// commit before Snapshot took a *DetectorSet (5cf7e60), after the first
// parentSnapshotSplit events of the ci scale (seed 42, 24 h): pair by
// Snapshot(w, pair) of a NewDetectorPair(), triple by SnapshotSet(w, set)
// of NewDetectorSet("sentinel", "arcane", "trajectory"), both fed every
// event through Inspect/InspectInto. That API is gone, so the writer is
// not kept here; regenerate them only from that commit — written by this
// build they would prove nothing.
const (
	parentSnapshotSplit = 5000
	parentSnapshotTotal = 10000
)

// TestParentWrittenSnapshotsResume: Resume restores both parent-written
// snapshots, re-Snapshot writes them back byte for byte, and the verdicts
// that follow equal those of a set that never stopped — where a fresh
// set's do not.
func TestParentWrittenSnapshotsResume(t *testing.T) {
	gen, err := divscrape.NewGenerator(divscrape.GeneratorConfig{Seed: 42, Duration: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var events []divscrape.Event
	errEnough := errors.New("enough")
	if err := gen.Run(func(ev divscrape.Event) error {
		if len(events) == parentSnapshotTotal {
			return errEnough
		}
		events = append(events, ev)
		return nil
	}); err != errEnough {
		t.Fatalf("the generator wrote %d events, the fixtures were cut from the first %d: %v", len(events), parentSnapshotTotal, err)
	}

	for _, fx := range []struct {
		file  string
		names []string
	}{
		{"pair.snapshot", nil},
		{"triple.snapshot", []string{"sentinel", "arcane", "trajectory"}},
	} {
		t.Run(fx.file, func(t *testing.T) {
			state, err := os.ReadFile(filepath.Join("testdata", "parent-snapshot", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := divscrape.Resume(bytes.NewReader(state), fx.names...)
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := divscrape.Snapshot(&again, resumed); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), state) {
				t.Fatalf("re-Snapshot wrote %d bytes that differ from the parent's %d", again.Len(), len(state))
			}

			uninterrupted, err := divscrape.NewDetectorSet(fx.names...)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := divscrape.NewDetectorSet(fx.names...)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]divscrape.Verdict, uninterrupted.Len())
			got := make([]divscrape.Verdict, resumed.Len())
			freshOut := make([]divscrape.Verdict, fresh.Len())
			for _, ev := range events[:parentSnapshotSplit] {
				uninterrupted.InspectInto(ev.Entry, want)
			}
			freshDiffers := 0
			for i, ev := range events[parentSnapshotSplit:] {
				uninterrupted.InspectInto(ev.Entry, want)
				resumed.InspectInto(ev.Entry, got)
				fresh.InspectInto(ev.Entry, freshOut)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("event %d, %s: resumed verdict %+v, uninterrupted %+v",
							parentSnapshotSplit+i, resumed.Detectors[j].Name(), got[j], want[j])
					}
					if freshOut[j] != want[j] {
						freshDiffers++
					}
				}
			}
			if freshDiffers == 0 {
				t.Fatal("a fresh set matched the uninterrupted run: the fixture carries no state that matters")
			}
		})
	}
}
