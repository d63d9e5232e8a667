package httpguard

import (
	"encoding/json"
	"net/http"
	netpprof "net/http/pprof"
	"time"

	"divscrape/internal/metrics"
	"divscrape/internal/mitigate"
	"divscrape/internal/shard"
)

// Observability surface: every guard carries a metrics.Registry whose
// instruments read the shard atomics the hot path already maintains —
// instrumenting the guard added one histogram observation per request and
// nothing else. DebugHandler exposes the registry at
// /debug/divscrape/metrics (Prometheus text, ?format=json for JSON) and a
// structural snapshot at /debug/divscrape/state, the two endpoints a
// long-running deployment watches for drift: alert-rate moving, action
// mix shifting, per-shard client state growing.

// DebugMetricsPath, DebugStatePath, DebugHealthPath, DebugTracePath and
// DebugExplainPath are the endpoints DebugHandler serves. The trace and
// explain endpoints answer 404 unless Config.Trace enabled the
// provenance plane; /debug/pprof/ is mounted only with
// Config.EnablePprof.
const (
	DebugMetricsPath = "/debug/divscrape/metrics"
	DebugStatePath   = "/debug/divscrape/state"
	DebugHealthPath  = "/debug/divscrape/health"
	DebugTracePath   = "/debug/divscrape/trace"
	DebugExplainPath = "/debug/divscrape/explain"
)

// latencyBuckets spans sub-millisecond decisions to multi-second tarpits.
var latencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// buildMetrics wires the registry. Called once from New, before the guard
// is shared, so registration never races.
func (g *Guard) buildMetrics() {
	r := metrics.NewRegistry()
	g.metrics = r
	g.latency = r.MustHistogram("divscrape_guard_request_seconds",
		"Wall time from decision start to response completion.", latencyBuckets)

	// Traffic counters: read straight off the shard atomics under the
	// topology read-lock, so scrapes agree with StatsDetail and survive
	// Rebalance.
	sumShards := func(i int) func() uint64 {
		return func() uint64 {
			g.mu.RLock()
			defer g.mu.RUnlock()
			var total uint64
			for _, s := range g.shards {
				total += s.counts[i].Load()
			}
			return total
		}
	}
	r.MustCounterFunc("divscrape_guard_requests_total", "Requests judged.", sumShards(cTotal))
	r.MustCounterFunc("divscrape_guard_alerted_total",
		"Requests any detector alerted on (1-out-of-N).", sumShards(cAlerted))
	r.MustCounterFunc("divscrape_guard_challenges_passed_total", "Solved challenge beacons.", sumShards(cPassed))
	for a := mitigate.Allow; a <= mitigate.Block; a++ {
		r.MustCounterFunc("divscrape_guard_actions_total",
			"Enforcement outcomes by action.", sumShards(cAllowed+int(a)),
			metrics.Label{Key: "action", Value: a.String()})
	}
	r.MustCounterFunc("divscrape_guard_evicted_total",
		"State entries dropped by windowed sweeps.", g.evicted.Load)
	r.MustCounterFunc("divscrape_guard_sweeps_total",
		"Windowed eviction sweeps run.", g.sweeps.Load)

	// Live-state gauges take the shard locks briefly; scrapes are rare
	// relative to requests, so the contention is noise.
	sumLocked := func(read func(*guardShard) int) func() int64 {
		return func() int64 {
			g.mu.RLock()
			defer g.mu.RUnlock()
			var total int64
			for _, s := range g.shards {
				s.Lock()
				total += int64(read(s))
				s.Unlock()
			}
			return total
		}
	}

	// Failure plane: shed and degraded request tallies, per-detector
	// panic/restore counts, and a quarantine gauge an alert can sit on.
	r.MustCounterFunc("divscrape_guard_shed_total",
		"Requests shed by admission control.", g.shed.Load)
	r.MustCounterFunc("divscrape_guard_degraded_total",
		"Requests judged with a quarantined detector sitting out.", g.degradedReqs.Load)
	for i, name := range g.names {
		r.MustCounterFunc("divscrape_guard_detector_panics_total",
			"Detector panics caught at the shard barrier.", g.panics[i].Load,
			metrics.Label{Key: "detector", Value: name})
		r.MustCounterFunc("divscrape_guard_detector_restores_total",
			"Quarantined detectors restored to service.", g.restores[i].Load,
			metrics.Label{Key: "detector", Value: name})
	}
	r.MustGaugeFunc("divscrape_guard_quarantined_detectors",
		"Detector slots currently quarantined across all shards.",
		sumLocked(func(s *guardShard) int { return s.Quarantined() }))
	r.MustGaugeFunc("divscrape_guard_shards",
		"Detection-state partitions.", func() int64 { return int64(g.Shards()) })
	r.MustGaugeFunc("divscrape_guard_engine_clients",
		"Clients holding enforcement-ladder state.",
		sumLocked(func(s *guardShard) int { return s.Engine.Len() }))
	for i, name := range g.names {
		r.MustGaugeFunc("divscrape_guard_detector_clients",
			"Live per-client states by detector.",
			sumLocked(func(s *guardShard) int { return s.sessions(i) }),
			metrics.Label{Key: "detector", Value: name})
	}
}

// sessions reports side i's live session count. Caller holds the shard
// mutex. (newShards verified every side's detector is a sessionHolder.)
func (s *guardShard) sessions(i int) int { return s.Dets[i].(sessionHolder).Sessions() }

// observeLatency records one request's wall time into the latency
// histogram.
func (g *Guard) observeLatency(start time.Time) {
	g.latency.Observe(g.cfg.Now().Sub(start).Seconds())
}

// Metrics returns the guard's registry, for callers embedding it into a
// larger metrics surface or scraping it directly. Encoding a scrape is
// allocation-free once warm (see internal/metrics).
func (g *Guard) Metrics() *metrics.Registry { return g.metrics }

// ShardState is one shard's live-state snapshot in the state endpoint.
type ShardState struct {
	EngineClients int
	// Detectors names the sides in side-list order; Sessions holds each
	// one's live per-client state count.
	Detectors []string
	Sessions  []int
	Actions   mitigate.ActionCounts
	Total     uint64
	Alerted   uint64
}

// MarshalJSON writes each side's count under <name>_sessions (sentinel's,
// which counts clients, under sentinel_clients) between the engine's
// count and the actions.
func (ss ShardState) MarshalJSON() ([]byte, error) {
	fields := []field{{"engine_clients", ss.EngineClients}}
	for i, name := range ss.Detectors {
		key := name + "_sessions"
		if name == "sentinel" {
			key = "sentinel_clients"
		}
		fields = append(fields, field{key, ss.Sessions[i]})
	}
	return object([]byte{'{'}, append(fields, field{"actions", ss.Actions}, field{"total", ss.Total}, field{"alerted", ss.Alerted}))
}

// field is one member of a JSON object that object writes in order.
type field struct {
	key   string
	value any
}

// object appends fields, in order, to the JSON object b opens, and closes
// it.
func object(b []byte, fields []field) ([]byte, error) {
	for _, f := range fields {
		if b[len(b)-1] != '{' {
			b = append(b, ',')
		}
		k, _ := json.Marshal(f.key)
		v, err := json.Marshal(f.value)
		if err != nil {
			return nil, err
		}
		b = append(append(append(b, k...), ':'), v...)
	}
	return append(b, '}'), nil
}

// State is the structural snapshot served at DebugStatePath.
type State struct {
	Policy           string        `json:"policy"`
	Shards           int           `json:"shards"`
	EvictWindow      time.Duration `json:"evict_window_ns"`
	Sweeps           uint64        `json:"sweeps"`
	Evicted          uint64        `json:"evicted"`
	Totals           GuardStats    `json:"totals"`
	PerShard         []ShardState  `json:"per_shard"`
	ChallengesHosted bool          `json:"challenges_hosted"`
}

// State captures the guard's live structure: per-shard client-state
// sizes, counters, policy and eviction configuration. Unlike the metrics
// scrape it allocates freely — it is a diagnostic page, not a poll
// target.
func (g *Guard) State() State {
	st := State{
		Policy:           g.policy.Mode.String(),
		EvictWindow:      g.cfg.EvictWindow,
		Sweeps:           g.sweeps.Load(),
		Evicted:          g.evicted.Load(),
		Totals:           g.StatsDetail(),
		ChallengesHosted: g.policy.UsesChallenge(),
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	st.Shards = len(g.shards)
	for _, s := range g.shards {
		ss := ShardState{Detectors: g.names, Sessions: make([]int, len(g.names))}
		s.Lock()
		for i := range ss.Sessions {
			ss.Sessions[i] = s.sessions(i)
		}
		ss.EngineClients = s.Engine.Len()
		s.Unlock()
		c := s.load()
		ss.Total, ss.Alerted, ss.Actions = c[cTotal], c[cAlerted], actionCounts(c)
		st.PerShard = append(st.PerShard, ss)
	}
	return st
}

// DetectorHealth is one detector slot's failure-plane state in the
// health endpoint: its shard's view of the side.
type DetectorHealth = shard.Health

// ShardHealth is one shard's failure-plane state.
type ShardHealth struct {
	Shard    int   `json:"shard"`
	InFlight int64 `json:"in_flight"`
	// Detectors names the sides in side-list order; Sides holds each
	// one's health.
	Detectors []string         `json:"-"`
	Sides     []DetectorHealth `json:"-"`
}

// MarshalJSON writes each side's health under its name, after the shard's
// index and in-flight gauge.
func (sh ShardHealth) MarshalJSON() ([]byte, error) {
	type plain ShardHealth // the fields above, without this method
	head, err := json.Marshal(plain(sh))
	if err != nil {
		return nil, err
	}
	fields := make([]field, len(sh.Sides))
	for i, name := range sh.Detectors {
		fields[i] = field{name, sh.Sides[i]}
	}
	return object(head[:len(head)-1], fields)
}

// GuardHealth is the document served at DebugHealthPath.
type GuardHealth struct {
	// Healthy is true when no detector slot is quarantined. The endpoint
	// mirrors it in the HTTP status: 200 healthy, 503 degraded, so a
	// load-balancer check needs no JSON parsing.
	Healthy bool `json:"healthy"`
	// DegradedMode names the configured policy for degraded requests.
	DegradedMode string `json:"degraded_mode"`
	// MaxInFlight is the per-shard admission bound; 0 = gate disabled.
	MaxInFlight int `json:"max_in_flight"`
	// Shed counts requests refused full judgement by admission control.
	Shed uint64 `json:"shed_total"`
	// DegradedRequests counts requests judged with a detector sitting out.
	DegradedRequests uint64 `json:"degraded_requests_total"`
	// Panics and Restores tally failure-plane transitions by detector.
	Panics   map[string]uint64 `json:"detector_panics_total"`
	Restores map[string]uint64 `json:"detector_restores_total"`
	// Quarantined counts detector slots currently out of service.
	Quarantined int           `json:"quarantined_detectors"`
	PerShard    []ShardHealth `json:"per_shard"`
}

// Health captures the guard's failure-plane state: per-shard detector
// quarantines, admission-control pressure and degraded-request totals.
// Like State it allocates freely — a diagnostic page, not a poll target.
func (g *Guard) Health() GuardHealth {
	h := GuardHealth{
		DegradedMode:     g.cfg.Degraded.String(),
		MaxInFlight:      g.cfg.MaxInFlight,
		Shed:             g.shed.Load(),
		DegradedRequests: g.degradedReqs.Load(),
		Panics:           make(map[string]uint64, len(g.names)),
		Restores:         make(map[string]uint64, len(g.names)),
	}
	for i, name := range g.names {
		h.Panics[name] = g.panics[i].Load()
		h.Restores[name] = g.restores[i].Load()
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	for i, s := range g.shards {
		sh := ShardHealth{Shard: i, InFlight: s.inflight.Load(), Detectors: g.names, Sides: make([]DetectorHealth, len(g.names))}
		s.Lock()
		for j := range sh.Sides {
			sh.Sides[j] = s.Health(j)
		}
		h.Quarantined += s.Quarantined()
		s.Unlock()
		h.PerShard = append(h.PerShard, sh)
	}
	h.Healthy = h.Quarantined == 0
	return h
}

// DebugHandler serves the guard's observability endpoints. Mount it on an
// operations listener (or merge it into an existing mux):
//
//	mux.Handle("/debug/divscrape/", guard.DebugHandler())
func (g *Guard) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle(DebugMetricsPath, g.metrics.Handler())
	mux.HandleFunc(DebugStatePath, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(g.State())
	})
	mux.HandleFunc(DebugHealthPath, func(w http.ResponseWriter, r *http.Request) {
		h := g.Health()
		w.Header().Set("Content-Type", "application/json")
		if !h.Healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h)
	})
	// Flight-recorder endpoints: a nil recorder (tracing disabled) serves
	// 404, so these are mounted unconditionally and the surface is stable.
	rec := g.trace.Recorder()
	mux.Handle(DebugTracePath, rec.TraceHandler())
	mux.Handle(DebugExplainPath, rec.ExplainHandler())
	if g.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	}
	return mux
}
