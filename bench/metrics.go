package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricSpec declares one metric: its name, unit and direction, and for
// end-to-end metrics the share of the parent's median by which it may
// worsen before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerSpec is metricSpec without a bound, as BENCHMARK.json lists
// per-layer metrics.
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// e2eSpecs are the metrics a user of the system sees. Every workload
// reports every one of them; BENCHMARK.json is generated from this table
// (-spec), so the names and bounds live in one place.
var e2eSpecs = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"req_per_s", "1/s", higher, 0.25},
	{"cpu_ns_per_req", "ns", lower, 0.25},
	{"allocs_per_req", "count", lower, 0.25},
	{"heap_bytes_per_req", "B", lower, 0.25},
}

// layerSpecs are the single-layer metrics of the traced run.
var layerSpecs = []layerSpec{
	{"e2e.ns_per_req", "ns", lower},
	{"e2e.mb_per_s", "MB/s", higher},
	{"layers.sum_ns", "ns", lower},
	{"layers.residual_ns", "ns", lower},
	{"logfmt.reader_ns", "ns", lower},
	{"logfmt.parse_ns", "ns", lower},
	{"logfmt.read_ns", "ns", lower},
	{"logfmt.parallel_reader_ns", "ns", lower},
	{"stream.follower_ns", "ns", lower},
	{"stream.follower_allocs", "count", lower},
	{"detector.enrich_ns", "ns", lower},
	{"uaparse.parse_ns", "ns", lower},
	{"iprep.lookup_ns", "ns", lower},
	{"sitemodel.classify_ns", "ns", lower},
	{"sentinel.inspect_ns", "ns", lower},
	{"arcane.inspect_ns", "ns", lower},
	{"trajectory.inspect_ns", "ns", lower},
	{"sentinel.alert_share", "share", lower},
	{"arcane.alert_share", "share", lower},
	{"trajectory.alert_share", "share", lower},
	{"ensemble.decide_ns", "ns", lower},
	{"sink.record_ns", "ns", lower},
	{"mitigate.apply_ns", "ns", lower},
	{"pipeline.evict_ns", "ns", lower},
	{"mitigate.clients", "count", lower},
	{"mitigate.action_share.allow", "share", higher},
	{"mitigate.action_share.tarpit", "share", lower},
	{"mitigate.action_share.challenge", "share", lower},
	{"mitigate.action_share.block", "share", lower},
	{"pipeline.seq_inmem_ns", "ns", lower},
	{"pipeline.relaxed_inmem_ns", "ns", lower},
	{"spsc.roundtrip_ns", "ns", lower},
	{"shard.max_share", "share", lower},
	{"relaxed.speedup", "ratio", higher},
	{"relaxed.cpu_ratio", "ratio", lower},
	{"pipeline.evict_sweeps", "count", lower},
	{"pipeline.evicted", "count", higher},
	{"state.clients", "count", lower},
	{"state.heap_mb", "MB", lower},
	{"state.bytes_per_client", "B", lower},
	{"statecodec.encode_ms", "ms", lower},
	{"statecodec.decode_ms", "ms", lower},
	{"checkpoint.bytes", "B", lower},
	{"checkpoint.restore_ms", "ms", lower},
	{"checkpoint.save_ms", "ms", lower},
	{"checkpoint.load_ms", "ms", lower},
	{"httpguard.serve_ns", "ns", lower},
	{"httpguard.serve_ns_2g", "ns", lower},
	{"httpguard.allocs_per_req", "count", lower},
	{"httpguard.heap_mb", "MB", lower},
	{"nethttp.bare_rps", "1/s", higher},
	{"nethttp.bare_p50_us", "us", lower},
	{"guard.rps", "1/s", higher},
	{"guard.p50_us", "us", lower},
	{"guard.p99_us", "us", lower},
	{"guard.p999_us", "us", lower},
	{"guard.added_p50_us", "us", lower},
	{"guard.open_samples", "count", higher},
	{"guard.over_limit_share", "share", lower},
	{"guard.openloop_ok", "count", higher},
	{"guard.shed", "count", lower},
	{"gen.late_p99_us", "us", lower},
	{"metrics.scrape_us", "us", lower},
	{"tracer.overhead_pct", "%", lower},
	{"input.lines", "count", higher},
	{"input.bytes_per_line", "B", lower},
	{"input.distinct_clients", "count", higher},
	{"input.distinct_uas", "count", higher},
	{"input.top10_client_share", "share", lower},
}

// runSeconds is how long one run measures, as BENCHMARK.json states it.
const runSeconds = 24

// workloadWhy records, in one line each, why a workload was chosen.
var workloadWhy = map[string]string{
	"replay-paper":  "paper mix (1.2k clients, nine scrapers make most lines, caches hot) from a log file through the sequential pipeline: parse and detector arithmetic own the time; single-threaded baseline",
	"relaxed-paper": "same bytes and detectors through 2 parse workers and 2 relaxed shards: any difference from replay-paper is hand-off, ring and key-skew cost",
	"follow-wide":   "12k churning clients through the follower, three detectors, 2h eviction and the graduated ladder: cold caches and state churn, where a per-client cache costs",
	"guard-http":    "wide mix as HTTP over loopback through the inline guard, closed loop on 2 keep-alive connections: the second real path, benign majority reaches the app",
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string            `json:"command"`
	Paths      []string            `json:"paths"`
	RunSeconds int                 `json:"run_seconds"`
	Workloads  []map[string]string `json:"workloads"`
	EndToEnd   []metricSpec        `json:"end_to_end"`
	PerLayer   []layerSpec         `json:"per_layer"`
}

func specJSON() ([]byte, error) {
	spec := benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   e2eSpecs,
		PerLayer:   layerSpecs,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, map[string]string{"name": w.name, "why": workloadWhy[w.name]})
	}
	return json.MarshalIndent(spec, "", "  ")
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's result line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// newReport builds the result line from measured values, insisting that
// exactly the declared metrics were measured and that each is finite.
func newReport(traced bool, attempted uint64, got map[string]float64) (*report, error) {
	r := &report{Correct: true, Attempted: attempted, Metrics: make(map[string]value)}
	add := func(name, unit string) error {
		v, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
		r.Metrics[name] = value{Value: v, Unit: unit}
		return nil
	}
	if traced {
		for _, s := range layerSpecs {
			if err := add(s.Name, s.Unit); err != nil {
				return nil, err
			}
		}
	} else {
		for _, s := range e2eSpecs {
			if err := add(s.Name, s.Unit); err != nil {
				return nil, err
			}
		}
	}
	for name := range got {
		if _, ok := r.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return r, nil
}
