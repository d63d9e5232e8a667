package detector

import (
	"fmt"
	"testing"
	"time"

	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
)

// A full cache starts over and admits; it never grows past its bound and
// never closes.
func TestAdmitStartsOverWhenFull(t *testing.T) {
	cache := make(map[string]int)
	for i := 0; i < 10; i++ {
		admit(cache, 4, fmt.Sprint(i), i)
		if len(cache) > 4 {
			t.Fatalf("cache holds %d entries after %d admissions, bound 4", len(cache), i+1)
		}
		if got, ok := cache[fmt.Sprint(i)]; !ok || got != i {
			t.Fatalf("admission %d not cached", i)
		}
	}
	// 0–3 filled it, 4 started it over, 8 again: 8 and 9 remain.
	if len(cache) != 2 {
		t.Errorf("cache holds %v, want the two newest", cache)
	}
}

// After a flood of one-shot User-Agents and addresses has filled the UA
// cache, a population that returns is cached again — it does not pay a
// User-Agent parse per line for the life of the process — and enriches
// without allocating, in both enrichers.
func TestEnrichersAdmitAgainAfterFlood(t *testing.T) {
	entry := logfmt.Entry{
		Identity: "-", AuthUser: "-", Time: time.Date(2018, 3, 11, 6, 25, 14, 0, time.UTC),
		Method: "GET", Path: "/product/17", Proto: "HTTP/1.1", Status: 200, Bytes: 512, Referer: "-",
	}
	population := make([]logfmt.Entry, 1000)
	for i := range population {
		population[i] = entry
		population[i].RemoteAddr = fmt.Sprintf("10.9.%d.%d", i/250, i%250)
		population[i].UserAgent = fmt.Sprintf("Mozilla/5.0 (returning %d)", i%40)
	}
	plain, shared := NewEnricher(iprep.BuildFeed()), NewSharedEnricher(iprep.BuildFeed())
	for _, tt := range []struct {
		name       string
		enrichInto func(*Request, logfmt.Entry)
		uaCache    map[string]uaFacts
		ipCache    map[string]ipInfo
	}{
		{"Enricher", plain.EnrichInto, plain.uaCache, plain.ipCache},
		{"SharedEnricher", shared.EnrichInto, shared.uaCache, shared.ipCache},
	} {
		var req Request
		for i := 0; i < 70000; i++ {
			e := entry
			e.RemoteAddr = fmt.Sprintf("100.%d.%d.%d", i>>16, i>>8&255, i&255)
			e.UserAgent = fmt.Sprintf("one-shot/%d", i)
			tt.enrichInto(&req, e)
		}
		if len(tt.uaCache) > maxCachedUAs {
			t.Fatalf("%s: UA cache holds %d entries, bound %d", tt.name, len(tt.uaCache), maxCachedUAs)
		}
		enrichAll := func() {
			for i := range population {
				tt.enrichInto(&req, population[i])
			}
		}
		enrichAll() // admitted here
		for i := range population {
			if _, ok := tt.uaCache[population[i].UserAgent]; !ok {
				t.Fatalf("%s: returning agent %q not cached after the flood", tt.name, population[i].UserAgent)
			}
			if _, ok := tt.ipCache[population[i].RemoteAddr]; !ok {
				t.Fatalf("%s: returning address %q not cached after the flood", tt.name, population[i].RemoteAddr)
			}
		}
		if allocs := testing.AllocsPerRun(5, enrichAll); allocs != 0 {
			t.Errorf("%s: returning population allocates %.0f per %d requests, want 0", tt.name, allocs, len(population))
		}
	}
}
