package main

import (
	"encoding/json"
	"net/http"
	netpprof "net/http/pprof"
	"time"

	"divscrape/internal/checkpoint"
	"divscrape/internal/cluster"
	"divscrape/internal/metrics"
	"divscrape/internal/pipeline"
	"divscrape/internal/stream"
	"divscrape/internal/trace"
)

// liveMetrics is the CLI's observability surface for follow mode: a
// registry mixing sink-updated counters (events, per-detector alerts,
// checkpoints — plain atomics, safe against the serving goroutine) with
// read-only instruments over the follower's and the pipeline's own atomic
// counters. Everything a scraper reads is lock-free; nothing reads the
// single-threaded engine or detector state.
type liveMetrics struct {
	reg    *metrics.Registry
	events *metrics.Counter
	// alerts holds one counter per pipeline detector, in detector order.
	alerts      []*metrics.Counter
	tagged      *metrics.Counter
	checkpoints *metrics.Counter

	// The sources the func instruments and the state endpoint read; held
	// here so construction and serving cannot wire different instances.
	pipe *pipeline.Pipeline
	fl   *stream.Follower

	// Failure plane (wired by wireFailurePlane; nil in plain replays and
	// in tests that never wire it, where the health endpoint reports
	// permanently healthy).
	wd     *watchdog
	retain int

	// Provenance plane (wired by wireTrace; nil recorder means the trace
	// and explain endpoints report tracing disabled).
	rec     *trace.Recorder
	pprofOn bool

	// Cluster plane (wired by wireCluster; nil without -cluster-listen).
	cnode *cluster.Node
}

// newLiveMetrics builds the surface over a caller-owned registry, so the
// tracer's stage histograms (registered by trace.New before the pipeline
// is built) and the sink counters here end up on one scrape page.
func newLiveMetrics(r *metrics.Registry, pipe *pipeline.Pipeline, fl *stream.Follower) *liveMetrics {
	if r == nil {
		r = metrics.NewRegistry()
	}
	m := &liveMetrics{reg: r, pipe: pipe, fl: fl}
	m.events = r.MustCounter("divscrape_events_total", "Log entries judged.")
	for _, name := range pipe.Detectors() {
		m.alerts = append(m.alerts, r.MustCounter("divscrape_alerts_total",
			"Per-detector alerts.", metrics.Label{Key: "detector", Value: name}))
	}
	m.tagged = r.MustCounter("divscrape_tagged_total", "Requests the response policy tagged.")
	m.checkpoints = r.MustCounter("divscrape_checkpoints_total", "State checkpoints written.")

	r.MustCounterFunc("divscrape_evict_sweeps_total", "Windowed eviction sweeps run.",
		func() uint64 {
			s, _ := pipe.EvictionStats()
			return s
		})
	r.MustCounterFunc("divscrape_evicted_total", "State entries dropped by windowed sweeps.",
		func() uint64 {
			_, e := pipe.EvictionStats()
			return e
		})
	if fl != nil {
		stat := func(read func(stream.FollowerStats) uint64) func() uint64 {
			return func() uint64 { return read(fl.Stats()) }
		}
		r.MustCounterFunc("divscrape_follow_lines_total", "Well-formed lines ingested.",
			stat(func(s stream.FollowerStats) uint64 { return s.Lines }))
		r.MustCounterFunc("divscrape_follow_bytes_total", "Raw log bytes consumed.",
			stat(func(s stream.FollowerStats) uint64 { return s.Bytes }))
		r.MustCounterFunc("divscrape_follow_skipped_total", "Malformed lines dropped.",
			stat(func(s stream.FollowerStats) uint64 { return s.Skipped }))
		r.MustCounterFunc("divscrape_follow_rotations_total", "Log rotations survived.",
			stat(func(s stream.FollowerStats) uint64 { return s.Rotations }))
		r.MustCounterFunc("divscrape_follow_truncations_total", "In-place truncations handled.",
			stat(func(s stream.FollowerStats) uint64 { return s.Truncations }))
		r.MustCounterFunc("divscrape_follow_read_errors_total", "Transient read failures retried with backoff.",
			stat(func(s stream.FollowerStats) uint64 { return s.ReadErrors }))
	}
	return m
}

// wireFailurePlane attaches the watchdog and checkpoint saver to the
// observability surface: the health endpoint starts reporting them, and
// the registry grows state-plane instruments. Must run before the
// handler is served.
func (m *liveMetrics) wireFailurePlane(wd *watchdog, saver *checkpoint.Saver, retain int) {
	m.wd, m.retain = wd, retain
	m.reg.MustCounterFunc("divscrape_degraded_transitions_total",
		"Healthy-to-degraded watchdog transitions.", wd.transitions.Load)
	m.reg.MustGaugeFunc("divscrape_degraded",
		"1 while the watchdog considers the process degraded.", func() int64 {
			if wd.degraded.Load() {
				return 1
			}
			return 0
		})
	if saver != nil {
		m.reg.MustCounterFunc("divscrape_checkpoint_saves_total",
			"Successful state checkpoints.", func() uint64 { return saver.Stats().Saves })
		m.reg.MustCounterFunc("divscrape_checkpoint_retries_total",
			"Checkpoint write attempts retried.", func() uint64 { return saver.Stats().Retries })
		m.reg.MustCounterFunc("divscrape_checkpoint_failures_total",
			"Checkpoint saves that exhausted their retries.", func() uint64 { return saver.Stats().Failures })
		m.reg.MustGaugeFunc("divscrape_checkpoint_age_seconds",
			"Age of the newest checkpoint generation; -1 before the first save.", func() int64 {
				age := saver.Age()
				if age < 0 {
					return -1
				}
				return int64(age.Seconds())
			})
	}
}

// wireTrace attaches the provenance plane to the debug mux: the flight
// recorder behind /debug/divscrape/trace and /debug/divscrape/explain,
// and — explicitly opted into — net/http/pprof. Must run before the
// handler is served.
func (m *liveMetrics) wireTrace(rec *trace.Recorder, pprofOn bool) {
	m.rec, m.pprofOn = rec, pprofOn
}

// wireCluster attaches the cluster node so the health endpoint reports
// membership, degradation and replication lag alongside the failure
// plane. Must run before the handler is served.
func (m *liveMetrics) wireCluster(n *cluster.Node) { m.cnode = n }

// liveState is the JSON document served at /debug/divscrape/state.
type liveState struct {
	Mode        string                `json:"mode"`
	Shards      int                   `json:"shards"`
	Follow      bool                  `json:"follow"`
	EvictWindow time.Duration         `json:"evict_window_ns"`
	Events      uint64                `json:"events"`
	Sweeps      uint64                `json:"sweeps"`
	Evicted     uint64                `json:"evicted"`
	Checkpoints uint64                `json:"checkpoints"`
	Follower    *stream.FollowerStats `json:"follower,omitempty"`
}

// handler serves the metrics registry and the state snapshot under the
// same /debug/divscrape/ paths httpguard uses, so dashboards work against
// either deployment shape.
func (m *liveMetrics) handler(mode string, shards int, follow bool, window time.Duration) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/divscrape/metrics", m.reg.Handler())
	mux.HandleFunc("/debug/divscrape/state", func(w http.ResponseWriter, r *http.Request) {
		st := liveState{
			Mode:        mode,
			Shards:      shards,
			Follow:      follow,
			EvictWindow: window,
			Events:      m.events.Value(),
			Checkpoints: m.checkpoints.Value(),
		}
		st.Sweeps, st.Evicted = m.pipe.EvictionStats()
		if m.fl != nil {
			fs := m.fl.Stats()
			st.Follower = &fs
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
	mux.HandleFunc("/debug/divscrape/health", func(w http.ResponseWriter, r *http.Request) {
		doc := healthDoc{Healthy: true}
		if m.wd != nil {
			doc = m.wd.health(m.retain)
		}
		if m.cnode != nil {
			st := m.cnode.Status()
			doc.Cluster = &st
		}
		w.Header().Set("Content-Type", "application/json")
		if !doc.Healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
	// The same trace/explain paths httpguard serves; a nil recorder
	// answers 404 "tracing disabled" rather than leaving the path unbound,
	// so dashboards can probe for the feature.
	mux.Handle("/debug/divscrape/trace", m.rec.TraceHandler())
	mux.Handle("/debug/divscrape/explain", m.rec.ExplainHandler())
	if m.pprofOn {
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	}
	return mux
}
