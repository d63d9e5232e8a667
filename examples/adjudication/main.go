// Adjudication trade-off study (the paper's Section V): with labelled
// traffic, compare the 1-out-of-2 scheme ("alarm if either tool alerts")
// against 2-out-of-2 ("alarm only if both agree") — the exact schemes the
// paper proposes to evaluate once its dataset is labelled. 1oo2 maximises
// detection at the cost of inheriting both tools' false alarms; 2oo2
// suppresses false alarms but forfeits every single-tool catch.
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
		Seed:     2018,
		Duration: 24 * time.Hour,
	})
	if err != nil {
		return err
	}
	// The summary's agreement table counts every request by both tools'
	// alerts and its label: each tool's confusion matrix and each vote's
	// are views of it.
	summary, err := divscrape.Analyze(divscrape.Generated(gen), divscrape.Options{})
	if err != nil {
		return err
	}
	total := summary.Total()
	single1, single2 := summary.Commercial(), summary.Behavioural()
	oneOfTwo, twoOfTwo := summary.Table.Vote(1), summary.Table.Vote(2)

	fmt.Printf("adjudication schemes over %d labelled requests (24 simulated hours)\n\n", total)
	fmt.Println("scheme        sensitivity   specificity   precision     F1      missed   false alarms")
	for _, row := range []struct {
		name string
		c    *divscrape.Confusion
	}{
		{"commercial ", &single1},
		{"behavioural", &single2},
		{"1-out-of-2 ", &oneOfTwo},
		{"2-out-of-2 ", &twoOfTwo},
	} {
		fmt.Printf("%s   %11.4f   %11.4f   %9.4f   %6.4f   %6d   %12d\n",
			row.name,
			row.c.Sensitivity(), row.c.Specificity(),
			row.c.Precision(), row.c.F1(),
			row.c.FN, row.c.FP)
	}

	fmt.Println("\nreading the trade-off:")
	fmt.Printf("  1oo2 misses %d fewer scraping requests than the best single tool,\n",
		bestSingleFN(&single1, &single2)-oneOfTwo.FN)
	fmt.Printf("  but raises %d more false alarms; 2oo2 inverts the trade.\n",
		oneOfTwo.FP-minFP(&single1, &single2))
	return nil
}

func bestSingleFN(a, b *divscrape.Confusion) uint64 {
	if a.FN < b.FN {
		return a.FN
	}
	return b.FN
}

func minFP(a, b *divscrape.Confusion) uint64 {
	if a.FP < b.FP {
		return a.FP
	}
	return b.FP
}
