package divscrape_test

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"time"

	"divscrape"
)

func TestAnalyzeEndToEnd(t *testing.T) {
	gen, err := divscrape.NewGenerator(divscrape.GeneratorConfig{
		Seed:     11,
		Duration: 2 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	summary, err := divscrape.Analyze(divscrape.Generated(gen), divscrape.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if summary.Total() == 0 {
		t.Fatal("empty run")
	}
	if summary.Contingency().Total() != summary.Total() {
		t.Error("contingency does not partition the stream")
	}
	if !summary.Labelled {
		t.Error("generator runs carry labels")
	}
	com := summary.Commercial()
	if com.Total() != summary.Total() || com.TP == 0 || com.TN == 0 {
		t.Errorf("confusion matrix %+v incomplete", com)
	}
}

// The file-based path must agree exactly with the in-memory path: write a
// dataset, re-read it as a Log source, and compare contingency tables.
func TestAnalyzeLogMatchesInMemory(t *testing.T) {
	cfg := divscrape.GeneratorConfig{Seed: 23, Duration: 90 * time.Minute}

	genA, err := divscrape.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inMemory, err := divscrape.Analyze(divscrape.Generated(genA), divscrape.Options{})
	if err != nil {
		t.Fatal(err)
	}

	genB, err := divscrape.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf, labelBuf bytes.Buffer
	n, err := divscrape.WriteDataset(genB, &logBuf, &labelBuf)
	if err != nil {
		t.Fatal(err)
	}
	fromLog, err := divscrape.Analyze(divscrape.Log(&logBuf), divscrape.Options{})
	if err != nil {
		t.Fatal(err)
	}

	if fromLog.Total() != n || fromLog.Total() != inMemory.Total() {
		t.Fatalf("totals differ: log %d, in-memory %d, written %d",
			fromLog.Total(), inMemory.Total(), n)
	}
	if fromLog.Contingency() != inMemory.Contingency() {
		t.Errorf("contingency differs:\n log:       %+v\n in-memory: %+v",
			fromLog.Contingency(), inMemory.Contingency())
	}
	if fromLog.Labelled {
		t.Error("raw logs carry no labels")
	}
}

// TestAnalyzeEquivalence holds every engine to the sequential one: for
// both source kinds, the default pair and all three detectors, the
// sharded engine's merged Summary must equal the sequential Summary field
// for field, every detector's confusion matrix included. Shards deliver
// into partial summaries without restoring stream order — every
// aggregate is a commutative count, so that changes nothing. A log
// replay's Summary is the generated one's without the labels.
func TestAnalyzeEquivalence(t *testing.T) {
	cfg := divscrape.GeneratorConfig{Seed: 9, Duration: 6 * time.Hour}
	gen := func() *divscrape.Generator {
		g, err := divscrape.NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var logBuf, labelBuf bytes.Buffer
	if _, err := divscrape.WriteDataset(gen(), &logBuf, &labelBuf); err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name string
		src  func() divscrape.Source
	}{
		{"generated", func() divscrape.Source { return divscrape.Generated(gen()) }},
		{"log", func() divscrape.Source { return divscrape.Log(bytes.NewReader(logBuf.Bytes())) }},
	}
	for _, names := range [][]string{nil, {"sentinel", "arcane", "trajectory"}} {
		var generated *divscrape.Summary
		for _, source := range sources {
			var want *divscrape.Summary
			for _, shards := range []int{1, 3, 8} {
				got, err := divscrape.Analyze(source.src(), divscrape.Options{Detectors: names, Shards: shards})
				if err != nil {
					t.Fatalf("%v %s shards=%d: %v", names, source.name, shards, err)
				}
				if want == nil {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v %s shards=%d: summary differs from the sequential one:\n got:  %+v\n want: %+v",
						names, source.name, shards, got, want)
				}
			}
			if generated == nil {
				generated = want
				if !want.Labelled || len(want.Detectors) != max(len(names), 2) {
					t.Fatalf("%v: generated summary is %+v", names, want)
				}
				for _, name := range names {
					if c, ok := want.ConfusionOf(name); !ok || c.Total() != want.Total() {
						t.Errorf("%v: confusion of %s is %+v (found %v)", names, name, c, ok)
					}
				}
				continue
			}
			if want.Labelled || !sameAlertViews(want, generated) {
				t.Errorf("%v: log summary %+v, want the generated one %+v unlabelled", names, want, generated)
			}
			for _, name := range want.Detectors {
				if c, ok := want.ConfusionOf(name); !ok || c != (divscrape.Confusion{}) {
					t.Errorf("%v: unlabelled confusion of %s is %+v (found %v)", names, name, c, ok)
				}
			}
		}
	}
}

// sameAlertViews reports whether two summaries count the same alerts:
// every detector's, every pair's and the all, none and only-one buckets —
// what a summary holds without its ground truth.
func sameAlertViews(a, b *divscrape.Summary) bool {
	if !slices.Equal(a.Detectors, b.Detectors) || a.Total() != b.Total() ||
		a.Table.All() != b.Table.All() || a.Table.None() != b.Table.None() {
		return false
	}
	for i := range a.Detectors {
		if a.Table.Only(i) != b.Table.Only(i) {
			return false
		}
		for j := range a.Detectors {
			if i != j && a.Table.Pair(i, j) != b.Table.Pair(i, j) {
				return false
			}
		}
	}
	return true
}

// TestAnalyzeShardedMatchesSequential holds the sharded engine to the
// sequential one on generated traffic at several shard counts, and a
// sharded log replay to the same totals and contingency without labels.
func TestAnalyzeShardedMatchesSequential(t *testing.T) {
	cfg := divscrape.GeneratorConfig{Seed: 29, Duration: 2 * time.Hour}
	gen := func() *divscrape.Generator {
		g, err := divscrape.NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	seq, err := divscrape.Analyze(divscrape.Generated(gen()), divscrape.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 3, 4, 8} {
		sharded, err := divscrape.Analyze(divscrape.Generated(gen()), divscrape.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if sharded.Total() != seq.Total() {
			t.Fatalf("shards=%d: totals differ: sharded %d, sequential %d", shards, sharded.Total(), seq.Total())
		}
		if sharded.Contingency() != seq.Contingency() {
			t.Errorf("shards=%d: contingency differs:\n sharded:    %+v\n sequential: %+v",
				shards, sharded.Contingency(), seq.Contingency())
		}
		if sharded.Commercial() != seq.Commercial() || sharded.Behavioural() != seq.Behavioural() {
			t.Errorf("shards=%d: labelled confusion matrices differ between modes", shards)
		}
		if !sharded.Labelled {
			t.Error("generator runs carry labels")
		}
	}

	// Log replay — parallel parse feeding the sharded pipeline — must
	// agree too.
	var logBuf, labelBuf bytes.Buffer
	if _, err := divscrape.WriteDataset(gen(), &logBuf, &labelBuf); err != nil {
		t.Fatal(err)
	}
	fromLog, err := divscrape.Analyze(divscrape.Log(&logBuf), divscrape.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fromLog.Total() != seq.Total() || fromLog.Contingency() != seq.Contingency() {
		t.Errorf("sharded log replay differs: %+v vs %+v", fromLog.Contingency(), seq.Contingency())
	}
	if fromLog.Labelled {
		t.Error("raw logs carry no labels")
	}
}

func TestDetectorSetInspectAndReset(t *testing.T) {
	pair, err := divscrape.NewDetectorSet()
	if err != nil {
		t.Fatal(err)
	}
	v := make([]divscrape.Verdict, pair.Len())
	entry := divscrape.Entry{
		RemoteAddr: "172.16.0.9", Identity: "-", AuthUser: "-",
		Time:   time.Date(2018, 3, 11, 12, 0, 0, 0, time.UTC),
		Method: "GET", Path: "/api/price/1", Proto: "HTTP/1.1",
		Status: 200, Bytes: 400, Referer: "-",
		UserAgent: "python-requests/2.18.4",
	}
	mustInspect(t, pair, entry, v)
	vc, vb := v[0], v[1]
	if !vc.Alert {
		t.Error("commercial detector should convict a tool UA from a datacenter")
	}
	if vb.Alert {
		t.Error("behavioural detector should still be warming up")
	}
	req := pair.Enrich(entry)
	if req.IP == 0 {
		t.Error("Enrich did not parse the address")
	}
	pair.Reset()
	mustInspect(t, pair, entry, v)
	if v[0].Alert != vc.Alert {
		t.Error("reset changed first-request behaviour")
	}
}

func TestCalibratedProfileExported(t *testing.T) {
	p := divscrape.CalibratedProfile(1)
	if p.Total() == 0 {
		t.Error("empty calibrated profile")
	}
}
