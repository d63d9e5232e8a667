// Quickstart: generate six hours of labelled synthetic e-commerce
// traffic, run both scraping detectors over it, and print the alerting
// diversity table the DSN 2018 paper reports (its Table 2) plus the
// labelled accuracy the paper names as future work.
package main

import (
	"fmt"
	"log"
	"time"

	"divscrape"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	gen, err := divscrape.NewGenerator(divscrape.GeneratorConfig{
		Seed:     7,
		Duration: 6 * time.Hour,
	})
	if err != nil {
		return err
	}
	summary, err := divscrape.Analyze(divscrape.Generated(gen), divscrape.Options{})
	if err != nil {
		return err
	}

	total := summary.Total
	c := summary.Contingency
	fmt.Printf("analysed %d requests over 6 simulated hours\n\n", total)
	fmt.Println("alert diversity (cf. paper Table 2):")
	fmt.Printf("  both detectors     %8d  (%5.2f%%)\n", c.Both, pct(c.Both, total))
	fmt.Printf("  neither            %8d  (%5.2f%%)\n", c.Neither, pct(c.Neither, total))
	fmt.Printf("  commercial only    %8d  (%5.2f%%)\n", c.AOnly, pct(c.AOnly, total))
	fmt.Printf("  behavioural only   %8d  (%5.2f%%)\n", c.BOnly, pct(c.BOnly, total))

	fmt.Println("\nlabelled accuracy (the paper's intended next step):")
	com, beh := summary.Commercial(), summary.Behavioural()
	fmt.Printf("  commercial  sensitivity=%.3f specificity=%.3f\n",
		com.Sensitivity(), com.Specificity())
	fmt.Printf("  behavioural sensitivity=%.3f specificity=%.3f\n",
		beh.Sensitivity(), beh.Specificity())
	return nil
}

func pct(n, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
