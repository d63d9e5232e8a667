package trajectory

import (
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/statecodec"
	"divscrape/internal/statecodec/codectest"
	"divscrape/internal/workload"
)

func snapEvents(t testing.TB, seed uint64) []workload.Event {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{
		Seed:     seed,
		Duration: 3 * time.Hour,
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
// restores into a fresh detector and verifies the verdict stream from k
// onward matches the uninterrupted run — the trajectory state carries a
// running surprise sum, a transition cursor and a kind histogram, all of
// which must survive the round trip exactly.
func TestSnapshotResumeEquivalence(t *testing.T) {
	events := snapEvents(t, 31)
	k := len(events) / 2

	full := newDet(t)
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

	head := newDet(t)
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

	tail := newDet(t)
	if err := tail.RestoreFrom(statecodec.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	if tail.Sessions() != head.Sessions() {
		t.Fatalf("restored %d sessions, had %d", tail.Sessions(), head.Sessions())
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

// TestShardedSnapshotMatchesSingle proves topology independence at the
// detector level: two key-disjoint shard instances snapshot to the same
// bytes a single instance seeing all the traffic produces.
func TestShardedSnapshotMatchesSingle(t *testing.T) {
	events := snapEvents(t, 32)
	part := func(ip uint32) int { return int(ip % 2) }

	single := newDet(t)
	shards := []detector.Detector{newDet(t), newDet(t)}
	enrA := detector.NewEnricher(iprep.BuildFeed())
	enrB := detector.NewEnricher(iprep.BuildFeed())
	for i := range events {
		var req detector.Request
		enrA.EnrichInto(&req, events[i].Entry)
		single.Inspect(&req)
		var req2 detector.Request
		enrB.EnrichInto(&req2, events[i].Entry)
		shards[part(req2.IP)].(*Detector).Inspect(&req2)
	}

	ws := statecodec.NewWriter()
	single.SnapshotInto(ws)
	wm := statecodec.NewWriter()
	if err := shards[0].(*Detector).SnapshotShardsInto(wm, shards); err != nil {
		t.Fatal(err)
	}
	if string(ws.Bytes()) != string(wm.Bytes()) {
		t.Error("sharded snapshot differs from single-instance snapshot")
	}

	// And the merged snapshot restores across a different partition.
	out := []detector.Detector{newDet(t), newDet(t), newDet(t)}
	if err := out[0].(*Detector).RestoreShards(statecodec.NewReader(wm.Bytes()), out, func(ip uint32) int { return int(ip % 3) }); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, d := range out {
		total += d.(*Detector).Sessions()
	}
	if total != single.Sessions() {
		t.Errorf("repartitioned to %d sessions, want %d", total, single.Sessions())
	}
}

func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	events := snapEvents(t, 33)
	d := newDet(t)
	enr := detector.NewEnricher(iprep.BuildFeed())
	for i := 0; i < 500; i++ {
		var req detector.Request
		enr.EnrichInto(&req, events[i].Entry)
		d.Inspect(&req)
	}
	w := statecodec.NewWriter()
	d.SnapshotInto(w)
	for cut := 0; cut < w.Len(); cut += 9 {
		fresh := newDet(t)
		if err := fresh.RestoreFrom(statecodec.NewReader(w.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if fresh.Sessions() != 0 {
			t.Fatalf("failed restore left %d sessions", fresh.Sessions())
		}
	}

	// A product-id list no writer emits is corrupt too, not silently taken.
	one := newDet(t)
	one.Inspect(mkReq(t, "10.9.8.7", cleanChrome, "/product/70001", base))
	one.Inspect(mkReq(t, "10.9.8.7", cleanChrome, "/product/70009", base.Add(time.Second)))
	w.Reset()
	one.SnapshotInto(w)
	find, rewrites := codectest.BadIDLists(70001, 70009)
	codectest.RejectRewrites(t, w.Bytes(), func(p []byte) error {
		return newDet(t).RestoreFrom(statecodec.NewReader(p))
	}, find, rewrites)
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
	for _, ev := range snapEvents(f, 31)[:30] {
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
