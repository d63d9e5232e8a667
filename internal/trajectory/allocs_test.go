package trajectory

import (
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/logfmt"
)

// Inspect reuses the flat feature vector and contribution scratch, so
// scoring an already-warm session must not allocate on the non-alerting
// path. The guard is a threshold rather than exact zero: session-state
// growth (first sight of a product ID, map resizes) may legitimately
// allocate occasionally.
func TestInspectAllocGuard(t *testing.T) {
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ua := "Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0"
	base := time.Date(2018, 3, 11, 12, 0, 0, 0, time.UTC)
	req := detector.NewEnricher(nil).Enrich(logfmt.Entry{
		RemoteAddr: "10.1.2.3", Identity: "-", AuthUser: "-",
		Method: "GET", Path: "/static/app.css", Proto: "HTTP/1.1",
		Status: 200, Bytes: 900, Referer: "/",
		UserAgent: ua,
	})
	// Warm past the trajectory warm-up so the scorer actually runs.
	for i := 0; i < 50; i++ {
		req.Entry.Time = base.Add(time.Duration(i*7) * time.Second)
		d.Inspect(&req)
	}
	i := 50
	allocs := testing.AllocsPerRun(200, func() {
		req.Entry.Time = base.Add(time.Duration(i*7) * time.Second)
		i++
		d.Inspect(&req)
	})
	if allocs > 0.5 {
		t.Errorf("Inspect allocates %.2f/op in steady state, want ~0", allocs)
	}
}
