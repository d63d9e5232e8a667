// Command bench is the repository's benchmark: it generates traffic from
// a seed, drives the program's public functions with it along both real
// paths — log bytes on disk to decisions, and HTTP requests on a socket
// to responses — checks the answers against a reference, and prints
// every metric by name. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// buildDir is where the benchmark keeps everything it writes, relative
// to the directory it is run from.
const buildDir = ".bench_build"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadName = flag.String("workload", "", "workload to run (see -spec); required unless -repeat, -compare or -spec is given")
		seed         = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds      = flag.Float64("seconds", runSeconds, "length of the timed phase")
		traced       = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the per-layer run")
		scaleName    = flag.String("scale", "full", "input size: full, or tiny for the smoke test")
		repeat       = flag.Int("repeat", 0, "run every workload (or -workload) this many times, untraced and traced, on seeds seed, seed+1, ...; report medians and spreads; write -out")
		out          = flag.String("out", filepath.Join(buildDir, "record.json"), "with -repeat: where the record is written")
		compare      = flag.Bool("compare", false, "compare two -repeat records: bench -compare old.json new.json")
		table        = flag.Bool("table", false, "with -repeat: also print the markdown layer-budget table")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json as this program declares it")
	)
	flag.Parse()
	switch {
	case *spec:
		b, err := specJSON()
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", b)
		return nil
	case *compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two record files")
		}
		return compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	sc, ok := scales[*scaleName]
	if !ok {
		return fmt.Errorf("unknown -scale %q", *scaleName)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	defs := workloads
	if *workloadName != "" || *repeat == 0 {
		d, err := workloadByName(*workloadName)
		if err != nil {
			return err
		}
		defs = []*workloadDef{d}
	}
	h := hostHeader()
	fmt.Fprintf(os.Stderr, "bench: %s, %d cpus, GOMAXPROCS %d, %s\n", h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion)
	if *repeat > 0 {
		return repeatRuns(defs, sc, *seed, *seconds, *repeat, *out, *table)
	}
	rep, err := runOnce(defs[0], sc, *seed, *seconds, *traced != 0, buildDir)
	if err != nil {
		return err
	}
	printReport(defs[0].name, rep)
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// runOnce is one run of one workload: the untraced end-to-end run, or
// the traced per-layer run. Scratch files live under workDir/tmp for the
// length of the run; the traced run leaves its spans in workDir.
func runOnce(d *workloadDef, sc scale, seed uint64, seconds float64, traced bool, workDir string) (*report, error) {
	tmp := filepath.Join(workDir, "tmp")
	if traced {
		m, err := runTraced(d, sc, seed, seconds, tmp, filepath.Join(workDir, "spans-"+d.name+".jsonl"))
		if err != nil {
			return nil, err
		}
		return newReport(true, uint64(m["input.lines"]), m)
	}
	res, err := runE2E(d, sc, seed, seconds, tmp)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d requests a pass, %d timed passes, median pass %.0f req/s\n",
		d.name, seed, res.lines, res.passes, res.medianRate)
	return newReport(false, res.attempted, res.metrics)
}

// host describes the machine a record was taken on.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func hostHeader() host {
	return host{CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// printReport lists every metric by name with its unit, direction and
// bound, for a human; the machine-readable line goes to standard output.
func printReport(workload string, r *report) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: attempted %d, failed %d\n", workload, r.Attempted, r.Failed)
	for _, name := range names {
		v := r.Metrics[name]
		better, bound := directionOf(name)
		line := fmt.Sprintf("  %-34s %16.4f %-6s %s is better", name, v.Value, v.Unit, better)
		if bound > 0 {
			line += fmt.Sprintf(", bound %.0f%%", bound*100)
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// directionOf looks a metric's direction and bound up in the tables.
func directionOf(name string) (string, float64) {
	for _, s := range e2eSpecs {
		if s.Name == name {
			return s.Better, s.Bound
		}
	}
	for _, s := range layerSpecs {
		if s.Name == name {
			return s.Better, 0
		}
	}
	return "", 0
}

// cpuModel reads the processor's name where the platform exposes it.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown cpu"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown cpu"
}
