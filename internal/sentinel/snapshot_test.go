package sentinel

import (
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/statecodec"
	"divscrape/internal/statecodec/codectest"
	"divscrape/internal/workload"
)

// snapEvents generates a deterministic mixed workload for the snapshot
// equivalence tests.
func snapEvents(t testing.TB, seed uint64) []workload.Event {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{
		Seed:     seed,
		Duration: 3 * time.Hour,
		Profile: workload.Profile{
			HumanVisitors:       20,
			HumanSessionsPerDay: 8,
			NaiveScrapers:       2,
			NaiveRate:           1.5,
			NaiveDuty:           0.5,
			AggressiveScrapers:  1,
			AggressiveRate:      4,
			AggressiveDuty:      0.4,
			StealthBots:         5,
			StealthSessionGap:   15 * time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 1000 {
		t.Fatalf("workload too small: %d events", len(events))
	}
	return events
}

// TestSnapshotResumeEquivalence stops a replay at event k, snapshots,
// restores into a fresh detector and verifies the verdict stream from
// k onward is identical to the uninterrupted run's.
func TestSnapshotResumeEquivalence(t *testing.T) {
	events := snapEvents(t, 41)
	k := len(events) / 2

	full, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	enrFull := detector.NewEnricher(iprep.BuildFeed())
	var want []detector.Verdict
	for i := range events {
		var req detector.Request
		enrFull.EnrichInto(&req, events[i].Entry)
		v := full.Inspect(&req)
		if i >= k {
			want = append(want, v)
		}
	}

	head, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	enr := detector.NewEnricher(iprep.BuildFeed())
	for i := 0; i < k; i++ {
		var req detector.Request
		enr.EnrichInto(&req, events[i].Entry)
		head.Inspect(&req)
	}
	w := statecodec.NewWriter()
	head.SnapshotInto(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	tail, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tail.RestoreFrom(statecodec.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	if tail.Sessions() != head.Sessions() {
		t.Fatalf("restored %d clients, had %d", tail.Sessions(), head.Sessions())
	}
	for i := k; i < len(events); i++ {
		var req detector.Request
		enr.EnrichInto(&req, events[i].Entry)
		got := tail.Inspect(&req)
		if got != want[i-k] {
			t.Fatalf("verdict %d diverged after resume: got %+v, want %+v", i, got, want[i-k])
		}
	}
}

// TestSnapshotDeterministicBytes pins the codec guarantee: the same
// detector state serialises to the same bytes, run to run.
func TestSnapshotDeterministicBytes(t *testing.T) {
	events := snapEvents(t, 42)
	build := func() []byte {
		d, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		enr := detector.NewEnricher(iprep.BuildFeed())
		for i := range events {
			var req detector.Request
			enr.EnrichInto(&req, events[i].Entry)
			d.Inspect(&req)
		}
		w := statecodec.NewWriter()
		d.SnapshotInto(w)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), w.Bytes()...)
	}
	if string(build()) != string(build()) {
		t.Error("identical replays snapshotted to different bytes")
	}
}

// TestRestoreRejectsCorruptSnapshot fuzz-adjacent sanity: truncations of
// a real snapshot must error, never panic, and leave an empty store.
func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	events := snapEvents(t, 43)
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	enr := detector.NewEnricher(iprep.BuildFeed())
	for i := 0; i < 500; i++ {
		var req detector.Request
		enr.EnrichInto(&req, events[i].Entry)
		d.Inspect(&req)
	}
	w := statecodec.NewWriter()
	d.SnapshotInto(w)
	for cut := 0; cut < w.Len(); cut += 7 {
		fresh, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreFrom(statecodec.NewReader(w.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if fresh.Sessions() != 0 {
			t.Fatalf("failed restore left %d clients", fresh.Sessions())
		}
	}

	// A User-Agent count list no writer emits — a repeated key (once counted
	// twice into the total), unsorted keys, a zero count — is corrupt too.
	one, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	one.Inspect(mkReq(t, 0, "10.9.8.7", "agent-aa/1.0", "/", base))
	one.Inspect(mkReq(t, 1, "10.9.8.7", "agent-zz/1.0", "/", base.Add(time.Second)))
	one.Inspect(mkReq(t, 2, "10.9.8.7", "agent-zz/1.0", "/", base.Add(2*time.Second)))
	w.Reset()
	one.SnapshotInto(w)
	entries := codectest.StringCounts
	codectest.RejectRewrites(t, w.Bytes(), func(p []byte) error {
		fresh, err := New(Config{})
		if err != nil {
			return err
		}
		return fresh.RestoreFrom(statecodec.NewReader(p))
	}, entries("agent-aa/1.0", 1, "agent-zz/1.0", 2), map[string][]byte{
		"repeated key":    entries("agent-aa/1.0", 1, "agent-aa/1.0", 2),
		"descending keys": entries("agent-zz/1.0", 2, "agent-aa/1.0", 1),
		"zero count":      entries("agent-aa/1.0", 1, "agent-zz/1.0", 0),
	})
}

// A restore of any bytes either fails or leaves a state that re-snapshots
// to canonical bytes, holding no more sessions than the payload names;
// none panics. Seeded from the state of a short mixed replay.
func FuzzRestoreFrom(f *testing.F) {
	build := func() *Detector {
		d, err := New(Config{})
		if err != nil {
			f.Fatal(err)
		}
		return d
	}
	d := build()
	enr := detector.NewEnricher(iprep.BuildFeed())
	var req detector.Request
	for _, ev := range snapEvents(f, 41)[:30] {
		enr.EnrichInto(&req, ev.Entry)
		d.Inspect(&req)
	}
	w := statecodec.NewWriter()
	d.SnapshotInto(w)
	// The payload names its sessions after the detector's and the store's
	// tags.
	named := func(p []byte) int { return codectest.NamedAt(p, 4) }
	sessions := func(r codectest.Restorer) int { return r.(*Detector).Sessions() }
	codectest.FuzzRestore(f, [][]byte{w.Bytes()}, build(), build(), sessions, named)
}
