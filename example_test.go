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
	c := summary.Contingency()
	fmt.Println("cells sum to total:", c.Both+c.Neither+c.AOnly+c.BOnly == summary.Total())
	fmt.Println("labelled:", summary.Labelled)
	// Output:
	// cells sum to total: true
	// labelled: true
}

// ExampleDetectorSet_InspectInto shows judging a single log record: a
// scraping kit's first request convicts on its declared User-Agent alone.
func ExampleDetectorSet_InspectInto() {
	pair, err := divscrape.NewDetectorSet()
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
	verdicts := make([]divscrape.Verdict, pair.Len())
	if err := pair.InspectInto(entry, verdicts); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("commercial alert:", verdicts[0].Alert)
	fmt.Println("behavioural alert (still warming up):", verdicts[1].Alert)
	// Output:
	// commercial alert: true
	// behavioural alert (still warming up): false
}
