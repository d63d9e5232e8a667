// Live guard demo: run the detector pair inline as HTTP middleware in
// front of a toy price API, then play both a human-like client and a
// scraping kit against it. The scraper gets blocked mid-harvest once the
// detectors convict it; the human browses undisturbed. This is the
// deployment form the paper's tools actually ship in — inline, not
// offline log analysis.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"divscrape/httpguard"
	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Simulated clock so the demo is instant and deterministic.
	var (
		mu  sync.Mutex
		now = time.Date(2018, 3, 12, 10, 0, 0, 0, time.UTC)
	)
	tick := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	var alerts int
	block := mitigate.StaticBlock(false)
	guard, err := httpguard.New(httpguard.Config{
		Policy: &block,
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		},
		OnVerdict: func(e logfmt.Entry, v httpguard.Verdicts) {
			if v.Alerted() {
				alerts++
			}
		},
	})
	if err != nil {
		return err
	}

	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"price": 129.99, "currency": "EUR"}`)
	})
	srv := httptest.NewServer(guard.Wrap(app))
	defer srv.Close()

	fetch := func(path, ua string) int {
		req, err := http.NewRequest("GET", srv.URL+path, nil)
		if err != nil {
			return 0
		}
		req.Header.Set("User-Agent", ua)
		resp, err := srv.Client().Do(req)
		if err != nil {
			return 0
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	const browserUA = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36"
	const kitUA = "python-requests/2.18.4"

	fmt.Println("a human browses three product pages:")
	for _, p := range []string{"/product/11", "/product/845", "/product/32"} {
		tick(9 * time.Second)
		fmt.Printf("  GET %-14s → %d\n", p, fetch(p, browserUA))
	}

	fmt.Println("\na scraping kit starts harvesting the price API:")
	blocked := 0
	for i := 0; i < 8; i++ {
		tick(time.Second)
		code := fetch(fmt.Sprintf("/api/price/%d", i), kitUA)
		fmt.Printf("  GET /api/price/%d → %d\n", i, code)
		if code == http.StatusForbidden {
			blocked++
		}
	}

	total, alerted, blockedCount := guard.Stats()
	fmt.Printf("\nguard stats: %d requests, %d alerted, %d blocked\n",
		total, alerted, blockedCount)
	if blocked == 0 {
		return fmt.Errorf("demo failed: the kit was never blocked")
	}

	// The same guard carries a live observability surface: mount
	// guard.DebugHandler() on an operations listener and a Prometheus
	// scraper (or curl) reads the decision counters in real time.
	debug := httptest.NewServer(guard.DebugHandler())
	defer debug.Close()
	resp, err := http.Get(debug.URL + httpguard.DebugMetricsPath)
	if err != nil {
		return err
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println("\na scrape of " + httpguard.DebugMetricsPath + " (excerpt):")
	for _, line := range strings.Split(string(scrape), "\n") {
		if strings.HasPrefix(line, "divscrape_guard_requests_total") ||
			strings.HasPrefix(line, "divscrape_guard_alerted_total") ||
			strings.HasPrefix(line, `divscrape_guard_actions_total{action="block"}`) {
			fmt.Println("  " + line)
		}
	}
	fmt.Println("the kit's declared User-Agent convicted it on sight; the human")
	fmt.Println("was untouched. Clean-fingerprint automation would need the")
	fmt.Println("behavioural detector to accumulate evidence first — exactly the")
	fmt.Println("diversity the paper measures between its two tools.")
	return nil
}
