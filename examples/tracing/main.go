// Tracing walkthrough: arm the guard's decision provenance plane, let a
// scraping kit harvest until the graduated ladder blocks it, then answer
// the operator's question — *why was this client blocked?* — from the
// flight recorder, and show where the decide path spends its time from
// the per-stage latency histograms. Everything here is also reachable
// over HTTP (DebugTracePath / DebugExplainPath on the guard's debug
// mux); this demo reads the same data in-process.
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"divscrape/httpguard"
	"divscrape/internal/mitigate"
	"divscrape/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	policy := mitigate.Graduated()
	// Every clock reading is a fixed step past the last, so request
	// timestamps, and with them the timing scores and the stage latencies
	// below, are the same on every run, whatever the machine.
	var ticks atomic.Int64
	start := time.Date(2018, 3, 12, 10, 0, 0, 0, time.UTC)
	guard, err := httpguard.New(httpguard.Config{
		Policy: &policy,
		Now:    func() time.Time { return start.Add(time.Duration(ticks.Add(1)) * 50 * time.Millisecond) },
		// The demo drives the scraper's address via X-Forwarded-For, so
		// the test server's loopback peer must be a trusted proxy.
		TrustedProxies: []string{"127.0.0.1", "::1"},
		Sleep:          func(time.Duration) {}, // skip real tarpit stalls
		// A non-nil Trace arms the plane. The zero config samples the
		// first 64 decisions plus every 256th, and always captures
		// escalations — the records that explain a block.
		Trace: &trace.RecorderConfig{},
	})
	if err != nil {
		return err
	}

	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"price": 129.99, "currency": "EUR"}`)
	})
	srv := httptest.NewServer(guard.Wrap(app))
	defer srv.Close()

	// A scraping kit harvests the price catalogue until the ladder
	// blocks it.
	const scraper = "203.0.113.66"
	client := srv.Client()
	var blockedAt int
	for i := 1; i <= 80; i++ {
		req, err := http.NewRequest("GET", fmt.Sprintf("%s/api/price/%d", srv.URL, i), nil)
		if err != nil {
			return err
		}
		req.Header.Set("User-Agent", "python-requests/2.18.4")
		req.Header.Set("X-Forwarded-For", scraper)
		res, err := client.Do(req)
		if err != nil {
			return err
		}
		res.Body.Close()
		if res.StatusCode == http.StatusForbidden && blockedAt == 0 {
			blockedAt = i
		}
	}
	if blockedAt == 0 {
		return fmt.Errorf("scraper was never blocked")
	}
	fmt.Printf("scraper %s blocked at request %d\n\n", scraper, blockedAt)

	// -------- why? the provenance timeline --------
	//
	// Explain returns the client's captured records in stream order plus
	// the system-wide events (quarantines, restores) that framed them.
	// Over HTTP: GET /debug/divscrape/explain?client=203.0.113.66
	tl := guard.FlightRecorder().Explain(scraper)
	fmt.Printf("provenance for %s: %d records on file\n", scraper, len(tl.Records))
	for _, r := range tl.Records {
		if r.Sampled != "escalation" {
			continue // print just the ladder transitions
		}
		fmt.Printf("  seq=%-3d %s -> %s (suspicion %.2f)\n", r.Seq, r.RungBefore, r.RungAfter, r.Suspicion)
		for _, d := range r.Detectors {
			fmt.Printf("    %-8s alert=%-5v score=%.2f %s\n",
				d.Detector, d.Alert, d.Score, strings.Join(d.Reasons, ", "))
			for _, f := range d.Features {
				fmt.Printf("      %s = %.4g\n", f.Name, f.Value)
			}
		}
	}

	// -------- where does decide time go? --------
	//
	// The same spans feed divscrape_stage_seconds on the metrics page;
	// StageStats is the in-process view. Under this demo's stepping clock
	// every span reads one step; under the wall clock (Config.Now unset)
	// they are the measured times.
	fmt.Println("\nper-stage decide latency:")
	for _, st := range guard.Tracer().StageStats() {
		if st.Count == 0 {
			continue
		}
		fmt.Printf("  %-16s %5d spans, mean %7.0f ns\n", st.Name(), st.Count, st.Mean()*1e9)
	}

	// The recorder's own accounting: how much of the stream is on file.
	stats := guard.FlightRecorder().Stats()
	fmt.Printf("\nflight recorder: %d decisions seen, %d captured, %d held\n",
		stats.Seen, stats.Captured, stats.Held)
	return nil
}
