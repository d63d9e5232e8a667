package arcane

import (
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/logfmt"
)

// Inspect reuses the flat feature vector and contribution scratch, so
// scoring an already-warm session must not allocate on the non-alerting
// path. The guard is a threshold rather than exact zero: session-state
// growth (a product set outgrowing its inline blocks) may legitimately
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
	// Warm past the behavioural warm-up so the scorer actually runs.
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

// A client that comes back after its session ended starts a new one in the
// slab slot the old one left free. The record is plain
// values — its product set holds a human's few 64-id blocks inline — so the
// whole visit, product views included, allocates nothing.
func TestRecycledSessionAllocGuard(t *testing.T) {
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	enr := detector.NewEnricher(nil)
	var reqs []detector.Request
	for _, path := range []string{"/", "/category/3", "/product/750", "/static/app.css", "/product/12",
		"/product/3011", "/api/price/3011", "/product/64", "/product/4999", "/product/751"} {
		reqs = append(reqs, enr.Enrich(logfmt.Entry{
			RemoteAddr: "10.1.2.3", Identity: "-", AuthUser: "-",
			Method: "GET", Path: path, Proto: "HTTP/1.1",
			Status: 200, Bytes: 900, Referer: "/",
			UserAgent: "Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0",
		}))
	}
	base := time.Date(2018, 3, 11, 12, 0, 0, 0, time.UTC)
	visits := 0
	visit := func() {
		// An hour apart: past the 30-minute idle timeout every time.
		at := base.Add(time.Duration(visits) * time.Hour)
		visits++
		for i := range reqs {
			reqs[i].Entry.Time = at.Add(time.Duration(i*7) * time.Second)
			d.Inspect(&reqs[i])
		}
	}
	visit() // allocates the one record
	visit() // first reuse of it
	if allocs := testing.AllocsPerRun(50, visit); allocs != 0 {
		t.Errorf("a returning client's visit allocates %.2f times, want 0", allocs)
	}
	if d.Sessions() != 1 {
		t.Errorf("%d live sessions, want the one", d.Sessions())
	}
}
