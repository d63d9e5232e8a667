package detector_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/sessions"
	"divscrape/internal/sitemodel"
	"divscrape/internal/workload"
)

// benchStream is the bench-scale traffic (3 h, seed 42 — what
// experiments.BenchScale and the root benchmarks replay) followed by
// targets the generator never emits, so the query-stripping and /api/
// branches of the path facts are exercised too.
func benchStream(t *testing.T) []logfmt.Entry {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{Seed: 42, Duration: 3 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	events, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]logfmt.Entry, 0, len(events)+16)
	for i := range events {
		entries = append(entries, events[i].Entry)
	}
	last := entries[len(entries)-1]
	for _, path := range []string{
		"/cart?item=3", "/checkout?step=2", "/login?next=/cart", "/admin?", "/api/stock/9",
		"/api/price/12?cur=eur", "/api", "/api?x=/api/", "/category/4?sort=asc&page=7",
		"/product/12x", "/search?q=/cart", "/static/app.css?v=3", "?", "",
	} {
		e := last
		e.Path = path
		entries = append(entries, e)
	}
	// Unparsable and empty client fields take the miss paths of both caches.
	odd := last
	odd.RemoteAddr, odd.UserAgent = "not-an-address", ""
	return append(entries, odd)
}

// The derived fields are the same values the detectors used to compute
// for themselves — session keys, and with them checkpoints, stay
// bit-identical — and the two enrichers, which share only the derive
// functions, fill a Request identically.
func TestDerivedFieldsMatchTheirDefinitions(t *testing.T) {
	feed := iprep.BuildFeed()
	plain, shared := detector.NewEnricher(feed), detector.NewSharedEnricher(feed)
	var a, b detector.Request
	for i, entry := range benchStream(t) {
		plain.EnrichInto(&a, entry)
		shared.EnrichInto(&b, entry)
		if a != b {
			t.Fatalf("entry %d: Enricher and SharedEnricher disagree:\n %+v\n %+v", i, a, b)
		}
		if got, want := a.SessionKey(), sessions.KeyFor(a.IP, a.Entry.UserAgent); got != want {
			t.Fatalf("entry %d (%q): SessionKey = %+v, KeyFor = %+v", i, entry.UserAgent, got, want)
		}
		if want := sitemodel.ClassifyPath(a.Entry.Path); a.Target != want {
			t.Fatalf("entry %d (%q): Target = %+v, ClassifyPath = %+v", i, entry.Path, a.Target, want)
		}
		if want := sitemodel.DisallowedByRobots(a.Entry.PathOnly()); a.RobotsDisallowed != want {
			t.Fatalf("entry %d (%q): RobotsDisallowed = %v, want %v", i, entry.Path, a.RobotsDisallowed, want)
		}
		if a.Seq != uint64(i) || a.Entry != entry {
			t.Fatalf("entry %d: Seq %d, entry copied wrongly", i, a.Seq)
		}
	}
}

// A detector that hashes the User-Agent or classifies the path for itself
// reintroduces the per-detector derivation the enricher took over (and
// can drift from what its siblings see). Detectors read req.SessionKey(),
// req.Target and req.RobotsDisallowed.
func TestDetectorsDoNotDeriveForThemselves(t *testing.T) {
	banned := []string{"sessions.KeyFor(", "sitemodel.ClassifyPath(", "sitemodel.DisallowedByRobots("}
	for _, pkg := range []string{"sentinel", "arcane", "trajectory", "bayes"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources found for %s (err %v)", pkg, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, call := range banned {
				if strings.Contains(string(src), call) {
					t.Errorf("%s calls %s…): read the field enrichment derived instead", file, call)
				}
			}
		}
	}
}
