package bayes

import (
	"os"
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/statecodec"
	"divscrape/internal/workload"
)

// testdata/parent-sessions.state holds the bytes (*Detector).SnapshotInto
// wrote at the commit before the session's product set became bitmap blocks
// (8ecf6db): this detector is not in the scrapedetect registry, so a
// throwaway test on a checkout of that commit trained Train(TrainConfig{Seed:
// 1001}), fed the detector the first half (92532 events, each through
// detector.NewEnricher(iprep.BuildFeed())) of workload.Config{Seed: 4,
// Duration: 24h} — the traffic `scrapegen -seed 4 -hours 24` writes, and the
// half cmd/scrapedetect's parent-state fixture was cut at — and wrote
// statecodec.Writer.Bytes() to the file. The live sessions include one that
// has enumerated thousands of products. The encoding did not change: the
// bytes must restore, write themselves back unchanged, and resume to the
// verdicts of a run that never stopped.
func TestParentWrittenStateResumes(t *testing.T) {
	parent, err := os.ReadFile("testdata/parent-sessions.state")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(workload.Config{Seed: 4, Duration: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	events, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	const k = 92532
	if len(events) != 2*k {
		t.Fatalf("the generator made %d events, the fixture was cut from %d: regenerate it", len(events), 2*k)
	}
	build := func() *Detector {
		m := *trainedModel(t)
		d, err := New(Config{Model: &m})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	resumed := build()
	if err := resumed.RestoreFrom(statecodec.NewReader(parent)); err != nil {
		t.Fatal(err)
	}
	w := statecodec.NewWriter()
	resumed.SnapshotInto(w)
	if string(w.Bytes()) != string(parent) {
		t.Error("the parent's snapshot, restored and written again, is not the same bytes")
	}

	full := build()
	enrFull, enr := detector.NewEnricher(iprep.BuildFeed()), detector.NewEnricher(iprep.BuildFeed())
	for i := range events {
		var req detector.Request
		enrFull.EnrichInto(&req, events[i].Entry)
		want := full.Inspect(&req)
		if i < k {
			continue
		}
		enr.EnrichInto(&req, events[i].Entry)
		if got := resumed.Inspect(&req); got != want {
			t.Fatalf("verdict %d diverged after resuming from the parent's snapshot: got %+v, want %+v", i, got, want)
		}
	}
}
