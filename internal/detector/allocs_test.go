package detector

import (
	"testing"
	"time"

	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/sitemodel"
)

// Enrichment is on the parse+enrich hot path and must be allocation-free
// in steady state for both enrichers: UA and IP facts are cached, the path
// facts are pure arithmetic on the target string, and EnrichInto writes
// into a caller-owned Request.
func TestEnrichZeroAllocsSteadyState(t *testing.T) {
	entry := logfmt.Entry{
		RemoteAddr: "10.1.2.3", Identity: "-", AuthUser: "-",
		Time:   time.Date(2018, 3, 11, 6, 25, 14, 0, time.UTC),
		Method: "GET", Path: "/category/3?sort=asc&page=2", Proto: "HTTP/1.1",
		Status: 200, Bytes: 52344, Referer: "/category/3",
		UserAgent: "Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0",
	}
	plain, shared := NewEnricher(iprep.BuildFeed()), NewSharedEnricher(iprep.BuildFeed())
	for name, enrichInto := range map[string]func(*Request, logfmt.Entry){
		"Enricher":       plain.EnrichInto,
		"SharedEnricher": shared.EnrichInto,
	} {
		var req Request
		// Warm the UA and IP caches.
		enrichInto(&req, entry)
		allocs := testing.AllocsPerRun(200, func() {
			enrichInto(&req, entry)
		})
		if allocs != 0 {
			t.Errorf("%s.EnrichInto allocates %.1f/op in steady state, want 0", name, allocs)
		}
		// The run above must have derived, not skipped, the path facts.
		if req.UAHash == 0 || req.Target.Kind != sitemodel.KindCategory || req.Target.Page != 2 {
			t.Errorf("%s left derived fields unset: %+v", name, req)
		}
	}

	// A client alternating between two agents the tables know is answered
	// from them on every line, without a write.
	alternate := []logfmt.Entry{entry, entry}
	alternate[1].UserAgent = "python-requests/2.18.4"
	for name, enrichInto := range map[string]func(*Request, logfmt.Entry){
		"Enricher":       plain.EnrichInto,
		"SharedEnricher": shared.EnrichInto,
	} {
		var req Request
		both := func() {
			for _, e := range alternate {
				enrichInto(&req, e)
			}
		}
		both()
		if allocs := testing.AllocsPerRun(200, both); allocs != 0 {
			t.Errorf("%s: a client alternating two known agents allocates %.1f per pair, want 0", name, allocs)
		}
	}

	// The by-value variant must stay allocation-free too (the Request
	// does not escape).
	var req Request
	allocs := testing.AllocsPerRun(200, func() {
		req = plain.Enrich(entry)
	})
	if allocs != 0 || req.Target.Kind != sitemodel.KindCategory {
		t.Errorf("Enrich allocates %.1f/op in steady state, want 0 (request %+v)", allocs, req)
	}
}
