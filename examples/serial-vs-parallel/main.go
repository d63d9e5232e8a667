// Deployment topology study (the paper's Section V): parallel deployment
// (both tools inspect all traffic) versus serial deployment (the first
// tool filters what the second must analyse). Serial saves second-stage
// inspection capacity but the second tool then builds its behavioural
// state from partial history — this example measures both the cost saving
// and the detection gap, driving the detectors individually through the
// public API.
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

// arrangement runs one deployment topology over a fresh detector pair.
type arrangement struct {
	name string
	pair *divscrape.DetectorSet
	// decide inspects one request and reports the alarm decision plus
	// whether the second-stage detector was consulted.
	decide func(req *divscrape.Request) (alert, usedSecond bool)

	conf        divscrape.Confusion
	total       uint64
	secondStage uint64
}

func run() error {
	arrangements, err := buildArrangements()
	if err != nil {
		return err
	}

	for _, a := range arrangements {
		gen, err := divscrape.NewGenerator(divscrape.GeneratorConfig{
			Seed:     77,
			Duration: 24 * time.Hour,
		})
		if err != nil {
			return err
		}
		a := a
		err = gen.Run(func(ev divscrape.Event) error {
			req := a.pair.Enrich(ev.Entry)
			alert, usedSecond := a.decide(&req)
			a.conf.Add(alert, ev.Label.Malicious())
			a.total++
			if usedSecond {
				a.secondStage++
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	fmt.Println("deployment topologies over 24 simulated hours (identical traffic)")
	fmt.Println()
	fmt.Println("topology                        sens     spec     2nd-stage load")
	for _, a := range arrangements {
		fmt.Printf("%-28s  %.4f   %.4f   %6.2f%% of traffic\n",
			a.name, a.conf.Sensitivity(), a.conf.Specificity(),
			100*float64(a.secondStage)/float64(a.total))
	}
	fmt.Println()
	fmt.Println("which cascade saves depends on the traffic mix: on this bot-heavy")
	fmt.Println("capture the OR cascade is the cheap one (the analyzer only sees the")
	fmt.Println("small share the filter passed clean), while the AND cascade pays for")
	fmt.Println("confirming the majority-suspect stream — and both serial shapes give")
	fmt.Println("the behavioural analyzer only partial history to learn from.")
	return nil
}

func buildArrangements() ([]*arrangement, error) {
	parallel, err := divscrape.NewDetectorSet()
	if err != nil {
		return nil, err
	}
	serialAND, err := divscrape.NewDetectorSet()
	if err != nil {
		return nil, err
	}
	serialOR, err := divscrape.NewDetectorSet()
	if err != nil {
		return nil, err
	}

	// Each pair's Detectors[0] is the commercial tool, Detectors[1] the
	// behavioural one.
	return []*arrangement{
		{
			name: "parallel (1-out-of-2)",
			pair: parallel,
			decide: func(req *divscrape.Request) (bool, bool) {
				vc := parallel.Detectors[0].Inspect(req)
				vb := parallel.Detectors[1].Inspect(req)
				return vc.Alert || vb.Alert, true
			},
		},
		{
			name: "serial commercial→behavioural AND",
			pair: serialAND,
			decide: func(req *divscrape.Request) (bool, bool) {
				vc := serialAND.Detectors[0].Inspect(req)
				if !vc.Alert {
					return false, false
				}
				vb := serialAND.Detectors[1].Inspect(req)
				return vb.Alert, true
			},
		},
		{
			name: "serial commercial→behavioural OR",
			pair: serialOR,
			decide: func(req *divscrape.Request) (bool, bool) {
				vc := serialOR.Detectors[0].Inspect(req)
				if vc.Alert {
					return true, false
				}
				vb := serialOR.Detectors[1].Inspect(req)
				return vb.Alert, true
			},
		},
	}, nil
}
