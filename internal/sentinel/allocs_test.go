package sentinel

import (
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/logfmt"
)

// Inspect reuses a flat feature vector, a contribution scratch buffer and
// a violation scratch slice, so judging a request for an already-live
// client must not allocate on the non-alerting path. The guard is a
// threshold rather than exact zero: session-state growth (new minute
// buckets, first-seen UAs) may legitimately allocate occasionally.
func TestInspectAllocGuard(t *testing.T) {
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2018, 3, 11, 12, 0, 0, 0, time.UTC)
	req := detector.NewEnricher(nil).Enrich(logfmt.Entry{
		RemoteAddr: "10.1.2.3", Identity: "-", AuthUser: "-",
		Method: "GET", Path: "/static/app.css", Proto: "HTTP/1.1",
		Status: 200, Bytes: 900, Referer: "/",
		UserAgent: "Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0",
	})
	// Warm: create the per-IP session and settle the rate limiter.
	for i := 0; i < 50; i++ {
		req.Entry.Time = base.Add(time.Duration(i) * time.Second)
		d.Inspect(&req)
	}
	i := 50
	allocs := testing.AllocsPerRun(200, func() {
		req.Entry.Time = base.Add(time.Duration(i) * time.Second)
		i++
		d.Inspect(&req)
	})
	if allocs > 0.5 {
		t.Errorf("Inspect allocates %.2f/op in steady state, want ~0", allocs)
	}
}
