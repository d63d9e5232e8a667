// Command divreport runs the reproduction's experiment suite and prints
// the paper's tables (E1-E4) plus the labelled extension experiments
// (E5-E10) as plain-text tables.
//
// Usage:
//
//	divreport [-scale bench|ci|paper] [-exp all|e1,...,e13] [-seed N]
//
// The ci scale (default) simulates one day of traffic; paper replays the
// full 8-day window (~1.5M requests, a couple of seconds).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"divscrape/internal/experiments"
	"divscrape/internal/report"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "divreport:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("divreport", flag.ContinueOnError)
	scaleName := fs.String("scale", "ci", "dataset scale: bench, ci or paper")
	expList := fs.String("exp", "all", "comma-separated experiments (e1..e13) or all")
	seed := fs.Uint64("seed", 0, "override the dataset seed (0 keeps the scale default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	if *seed != 0 {
		scale.Seed = *seed
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*expList, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	wantExp := func(id string) bool { return want["all"] || want[id] }

	fmt.Fprintf(w, "divscrape experiment suite — scale=%s duration=%v seed=%d\n\n",
		scale.Name, scale.Duration, scale.Seed)

	res, err := experiments.Execute(scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dataset: %s requests generated and scored in %v\n\n",
		report.Count(res.Table.Total()), res.Elapsed.Round(1000000))

	tables := []struct {
		id    string
		build func() *report.Table
	}{
		{"e1", func() *report.Table { return experiments.Table1(res) }},
		{"e2", func() *report.Table { return experiments.Table2(res) }},
		{"e3", func() *report.Table { return experiments.Table3(res) }},
		{"e4", func() *report.Table { return experiments.Table4(res) }},
		{"e5", func() *report.Table { return experiments.Table5(res) }},
		{"e6", func() *report.Table { return experiments.Table6(res) }},
		{"e8", func() *report.Table { return experiments.Table8(res) }},
		{"e9", func() *report.Table { return experiments.Table9(res) }},
		{"e10", func() *report.Table { return experiments.Table10(res) }},
	}
	for _, tb := range tables {
		if !wantExp(tb.id) {
			continue
		}
		if err := tb.build().Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	if wantExp("e7") {
		topo, err := experiments.ExecuteTopologies(res)
		if err != nil {
			return err
		}
		if err := experiments.Table7(topo).Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	if wantExp("e11") {
		threeWay, err := experiments.ExecuteThreeWay(scale)
		if err != nil {
			return err
		}
		if err := experiments.Table11(threeWay).Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	if wantExp("e13") {
		traj, err := experiments.ExecuteTrajectory(scale)
		if err != nil {
			return err
		}
		if err := experiments.Table13(traj).Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := experiments.Table13Diversity(traj).Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
