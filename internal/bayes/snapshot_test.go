package bayes

import (
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/statecodec"
	"divscrape/internal/statecodec/codectest"
	"divscrape/internal/workload"
)

func TestModelSnapshotRoundTrip(t *testing.T) {
	m := trainedModel(t)
	w := statecodec.NewWriter()
	m.SnapshotInto(w)

	var restored Model
	if err := restored.RestoreFrom(statecodec.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !restored.Trained() {
		t.Fatal("restored model untrained")
	}
	// Posteriors must agree bit for bit on every possible vector shape.
	for i := 0; i < 64; i++ {
		var v FeatureVector
		for f := 0; f < numFeatures; f++ {
			v[f] = uint8((i + f) % numBins)
		}
		if m.Posterior(v) != restored.Posterior(v) {
			t.Fatalf("posterior diverged on %v", v)
		}
	}
}

// TestSnapshotResumeEquivalence: stop at k, snapshot (model + sessions),
// restore into a detector built around a *freshly trained-elsewhere*
// model value, and require the verdict stream from k onward to match the
// uninterrupted run.
func TestSnapshotResumeEquivalence(t *testing.T) {
	model := trainedModel(t)
	gen := func() *workload.Generator {
		g, err := workload.NewGenerator(workload.Config{Seed: 777, Duration: 3 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	events, err := gen().Generate()
	if err != nil {
		t.Fatal(err)
	}
	k := len(events) / 2

	mc := *model // private copy so restore cannot trivially alias
	full, err := New(Config{Model: &mc})
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

	mh := *model
	head, err := New(Config{Model: &mh})
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

	mt := *model
	tail, err := New(Config{Model: &mt})
	if err != nil {
		t.Fatal(err)
	}
	if err := tail.RestoreFrom(statecodec.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
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

func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	m := *trainedModel(t)
	d, err := New(Config{Model: &m})
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(workload.Config{Seed: 778, Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	enr := detector.NewEnricher(iprep.BuildFeed())
	if err := g.Run(func(ev workload.Event) error {
		var req detector.Request
		enr.EnrichInto(&req, ev.Entry)
		d.Inspect(&req)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	w := statecodec.NewWriter()
	d.SnapshotInto(w)
	for cut := 0; cut < w.Len(); cut += 101 {
		m2 := *trainedModel(t)
		fresh, err := New(Config{Model: &m2})
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreFrom(statecodec.NewReader(w.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	// A product-id list no writer emits is corrupt too, not silently taken.
	m3 := *trainedModel(t)
	one, err := New(Config{Model: &m3})
	if err != nil {
		t.Fatal(err)
	}
	for i, path := range []string{"/product/70001", "/product/70009"} {
		req := enr.Enrich(logfmt.Entry{
			RemoteAddr: "10.9.8.7", Identity: "-", AuthUser: "-",
			Time: time.Date(2018, 3, 12, 10, 0, i, 0, time.UTC), Method: "GET", Path: path,
			Proto: "HTTP/1.1", Status: 200, Bytes: 1000, Referer: "-", UserAgent: "Mozilla/5.0",
		})
		one.Inspect(&req)
	}
	w.Reset()
	one.SnapshotInto(w)
	find, rewrites := codectest.BadIDLists(70001, 70009)
	codectest.RejectRewrites(t, w.Bytes(), func(p []byte) error {
		m4 := *trainedModel(t)
		fresh, err := New(Config{Model: &m4})
		if err != nil {
			return err
		}
		return fresh.RestoreFrom(statecodec.NewReader(p))
	}, find, rewrites)
}
