package divscrape_test

import (
	"fmt"
	"time"

	"divscrape"
)

// ExampleAnalyze generates a short labelled traffic window, runs the
// paper's detector pair over it and prints the alert-agreement structure of the
// paper's Table 2. Everything is deterministic in the seed.
func ExampleAnalyze() {
	gen, err := divscrape.NewGenerator(divscrape.GeneratorConfig{
		Seed:     7,
		Duration: time.Hour,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	summary, err := divscrape.Analyze(divscrape.Generated(gen), divscrape.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	c := summary.Contingency
	fmt.Println("cells sum to total:", c.Both+c.Neither+c.AOnly+c.BOnly == summary.Total)
	fmt.Println("labelled:", summary.Labelled)
	// Output:
	// cells sum to total: true
	// labelled: true
}

// ExampleDetectorPair_Inspect shows judging a single log record: a
// scraping kit's first request convicts on its declared User-Agent alone.
func ExampleDetectorPair_Inspect() {
	pair, err := divscrape.NewDetectorPair()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	entry := divscrape.Entry{
		RemoteAddr: "172.16.0.9",
		Identity:   "-",
		AuthUser:   "-",
		Time:       time.Date(2018, 3, 12, 10, 0, 0, 0, time.UTC),
		Method:     "GET",
		Path:       "/api/price/1",
		Proto:      "HTTP/1.1",
		Status:     200,
		Bytes:      400,
		Referer:    "-",
		UserAgent:  "python-requests/2.18.4",
	}
	commercial, behavioural := pair.Inspect(entry)
	fmt.Println("commercial alert:", commercial.Alert)
	fmt.Println("behavioural alert (still warming up):", behavioural.Alert)
	// Output:
	// commercial alert: true
	// behavioural alert (still warming up): false
}
