package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// series is one metric's readings over a record's repetitions.
type series struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is the interquartile distance as a share of the median.
	Spread float64 `json:"spread"`
}

func newSeries(vs []float64) *series {
	s := &series{Values: vs, Median: median(vs)}
	if len(vs) >= 2 {
		s.Q1, _, s.Q3 = quartiles(vs)
		s.Spread = spreadOf(vs)
	} else {
		s.Q1, s.Q3 = s.Median, s.Median
	}
	return s
}

// workloadRecord is one workload's repetitions.
type workloadRecord struct {
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]*series `json:"per_layer"`
}

// record is what -repeat writes and -compare reads.
type record struct {
	Host      host                       `json:"host"`
	Scale     string                     `json:"scale"`
	Seconds   float64                    `json:"seconds"`
	Seeds     []uint64                   `json:"seeds"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

// repeatRuns runs every workload in defs n times — untraced, then traced
// — on seeds seed, seed+1, ..., alternating the workload order between
// repetitions so that no workload always runs on a warm or a cold
// machine. It writes the record to out and fails if an end-to-end metric
// spread wider than its bound: such a record cannot settle a comparison.
func repeatRuns(defs []*workloadDef, sc scale, seed uint64, seconds float64, n int, out string, table bool) error {
	rec := &record{Host: hostHeader(), Scale: sc.name, Seconds: seconds, Workloads: make(map[string]*workloadRecord)}
	e2e := make(map[string]map[string][]float64)
	layers := make(map[string]map[string][]float64)
	for _, d := range defs {
		rec.Workloads[d.name] = &workloadRecord{}
		e2e[d.name] = make(map[string][]float64)
		layers[d.name] = make(map[string][]float64)
	}
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		rec.Seeds = append(rec.Seeds, s)
		order := append([]*workloadDef(nil), defs...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, d := range order {
			for _, traced := range []bool{false, true} {
				rep, err := runOnce(d, sc, s, seconds, traced, buildDir)
				if err != nil {
					return err
				}
				into := e2e[d.name]
				if traced {
					into = layers[d.name]
				} else {
					rec.Workloads[d.name].Attempted += rep.Attempted
					rec.Workloads[d.name].Failed += rep.Failed
				}
				for name, v := range rep.Metrics {
					into[name] = append(into[name], v.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "bench: repetition %d/%d, seed %d, %s done\n", i+1, n, s, d.name)
		}
	}
	var wide []string
	for _, d := range defs {
		w := rec.Workloads[d.name]
		w.EndToEnd, w.PerLayer = make(map[string]*series), make(map[string]*series)
		for name, vs := range e2e[d.name] {
			w.EndToEnd[name] = newSeries(vs)
		}
		for name, vs := range layers[d.name] {
			w.PerLayer[name] = newSeries(vs)
		}
		for _, spec := range e2eSpecs {
			s := w.EndToEnd[spec.Name]
			fmt.Fprintf(os.Stderr, "%-14s %-20s median %14.4f %-6s q1 %14.4f q3 %14.4f spread %5.1f%% (bound %.0f%%)\n",
				d.name, spec.Name, s.Median, spec.Unit, s.Q1, s.Q3, s.Spread*100, spec.Bound*100)
			// Set-up is bounded on its median only; it repeats too few
			// times in a run for its spread to mean much.
			if spec.Name != "setup_s" && s.Spread > spec.Bound {
				wide = append(wide, fmt.Sprintf("%s %s spread %.1f%% > bound %.0f%%", d.name, spec.Name, s.Spread*100, spec.Bound*100))
			}
		}
	}
	if err := writeRecord(out, rec); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: record written to %s\n", out)
	if table {
		writeLayerTable(os.Stdout, rec)
	}
	if len(wide) > 0 {
		return fmt.Errorf("record is not steady enough to trust: %v", wide)
	}
	return nil
}

func writeRecord(path string, rec *record) error {
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := &record{}
	if err := json.Unmarshal(b, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// worsening is how far new is worse than old as a share of old, positive
// when worse, for a metric whose better direction is given.
func worsening(old, new float64, better string) float64 {
	if old == 0 {
		return 0
	}
	if better == higher {
		return (old - new) / old
	}
	return (new - old) / old
}

// compareRecords prints one row per workload and end-to-end metric —
// both medians, the change, the bound and the verdict — and fails on any
// regression or any rise in failed operations. Where either record's own
// spread exceeds the bound the row reads unresolved, not unchanged.
func compareRecords(w io.Writer, oldPath, newPath string) error {
	old, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	cur, err := readRecord(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "old median", "new median", "worse", "bound", "verdict")
	var bad []string
	for _, d := range workloads {
		o, n := old.Workloads[d.name], cur.Workloads[d.name]
		if o == nil || n == nil {
			continue
		}
		for _, spec := range e2eSpecs {
			os, ns := o.EndToEnd[spec.Name], n.EndToEnd[spec.Name]
			if os == nil || ns == nil {
				continue
			}
			worse := worsening(os.Median, ns.Median, spec.Better)
			verdict := "ok"
			switch {
			case spec.Name != "setup_s" && (os.Spread > spec.Bound || ns.Spread > spec.Bound):
				verdict = "unresolved"
			case worse > spec.Bound:
				verdict = "REGRESSION"
				bad = append(bad, d.name+" "+spec.Name)
			case worse < -spec.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f %+7.1f%% %5.0f%%  %s (%s is better)\n",
				d.name, spec.Name, os.Median, ns.Median, worse*100, spec.Bound*100, verdict, spec.Better)
		}
		oldShare := float64(o.Failed) / float64(max(o.Attempted, 1))
		newShare := float64(n.Failed) / float64(max(n.Attempted, 1))
		verdict := "ok"
		if newShare > oldShare {
			verdict = "REGRESSION"
			bad = append(bad, d.name+" failed")
		}
		fmt.Fprintf(w, "%-14s %-20s %14.6f %14.6f %8s %6s  %s\n", d.name, "failed share", oldShare, newShare, "", "0", verdict)
	}
	if len(bad) > 0 {
		return fmt.Errorf("regressions: %v", bad)
	}
	return nil
}

// writeLayerTable prints the markdown layer-budget table: per workload,
// the layers on its path, their sum, the end-to-end figure and the
// residual between the two.
func writeLayerTable(w io.Writer, rec *record) {
	fmt.Fprintln(w, "| workload | layer | ns/req | share of end-to-end |")
	fmt.Fprintln(w, "|---|---|---:|---:|")
	for _, d := range workloads {
		wr := rec.Workloads[d.name]
		if wr == nil || wr.PerLayer["e2e.ns_per_req"] == nil {
			continue
		}
		e2e := wr.PerLayer["e2e.ns_per_req"].Median
		path := d.pathLayers()
		sort.Strings(path)
		for _, name := range path {
			v := wr.PerLayer[name].Median
			fmt.Fprintf(w, "| %s | `%s` | %.1f | %.1f%% |\n", d.name, name, v, v/e2e*100)
		}
		sum, res := wr.PerLayer["layers.sum_ns"].Median, wr.PerLayer["layers.residual_ns"].Median
		fmt.Fprintf(w, "| %s | **Σ layers** (`layers.sum_ns`) | %.1f | %.1f%% |\n", d.name, sum, sum/e2e*100)
		fmt.Fprintf(w, "| %s | **residual** (`layers.residual_ns`) | %.1f | %.1f%% |\n", d.name, res, res/e2e*100)
		fmt.Fprintf(w, "| %s | **end to end** (`e2e.ns_per_req`) | %.1f | 100%% |\n", d.name, e2e)
	}
}
