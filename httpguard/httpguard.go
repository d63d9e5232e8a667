// Package httpguard deploys the divscrape detectors as live HTTP
// middleware: every request through the wrapped handler is converted to
// the access-log view the detectors consume, judged in real time, and
// answered with a graduated enforcement action. This is the "operational"
// face of the reproduction: the paper studies the tools as offline log
// analysers, but the products they model run inline, and a downstream
// adopter of this library will want exactly this entry point.
//
// Enforcement is driven by a mitigate.Engine per shard rather than a
// static action switch: the adjudicated verdicts feed a per-client
// suspicion integral that climbs the Allow → Tarpit → Challenge → Block
// ladder and decays back. The static behaviours are policies too
// (mitigate.Observe, the default; mitigate.Tag; mitigate.StaticBlock).
// When the graduated policy is active the guard also hosts the challenge
// flow itself: it serves the challenge script, and a POST to the verify
// endpoint marks the client's challenge solved.
//
// The middleware observes the *response* status via a recording writer,
// so its log view matches what Apache would have written. The detectors
// are single-threaded by design (per-client state machines), so the guard
// partitions traffic by client IP across Config.Shards internal shards —
// the same key-partitioning, by the same function, as the offline
// pipeline's Sharded mode. Each shard is an internal/shard decision core
// (its own enricher, instance of every judging side, mitigation engine,
// failure plane and mutex) running the Enrich and Judge steps the
// pipeline's shards run; the guard adds what only an inline host needs:
// last-good snapshots in its sweep slot, the degraded-mode answer,
// admission control, counters, and the answer on the wire. A
// client's requests always hash to the same shard, so per-client detection
// and enforcement state is exactly what a single serialised detector set
// would hold, while unrelated clients no longer contend on one lock.
//
// Which detectors judge is decided in one place, the detector registry
// (internal/registry): New resolves Config to one factory per side there,
// every shard builds its []detector.Detector from those factories, and
// everything else — verdicts, sweeps, snapshots, metrics, state, health,
// flight records — loops over the sides by index, under the names the
// detectors give themselves. Note the guard
// delivers per shard: responses leave in whatever order shards finish,
// stats, tracing and eviction are shard-local, and nothing ever merges the
// streams back into arrival order —
// pipeline.RunRelaxed is this deployment shape replayed offline, and the
// facts proven for it (per-client total order, order-free aggregate
// equality) are what make the guard's inline judgements equivalent to the
// paper's offline analysis.
//
// The shard count is a runtime tunable, not a boot-time constant:
// Rebalance snapshots every client's state, rehashes it onto a new shard
// set and swaps the topology without dropping a request, and
// SnapshotInto/RestoreFrom persist the same state across process
// restarts — see rebalance.go and internal/statecodec.
package httpguard

import (
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"divscrape/internal/arcane"
	"divscrape/internal/detector"
	"divscrape/internal/ensemble"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/metrics"
	"divscrape/internal/mitigate"
	"divscrape/internal/registry"
	"divscrape/internal/sentinel"
	"divscrape/internal/shard"
	"divscrape/internal/sitemodel"
	"divscrape/internal/trace"
	"divscrape/internal/trajectory"
)

// Verdicts is one request's judgement by every side, in side-list order.
// It is a view over the guard's per-request scratch, valid only during the
// callback it is passed to, as a pipeline.Decision is: copy what must
// outlive the call. Alerted and Confirmed read the vote off
// ensemble.Assess, the assessment the mitigation ladder acts on.
type Verdicts struct {
	names    []string
	verdicts []detector.Verdict
}

// Len is the number of judging sides.
func (v Verdicts) Len() int { return len(v.verdicts) }

// At is side i's verdict: zero when the side sat out the request.
func (v Verdicts) At(i int) detector.Verdict { return v.verdicts[i] }

// Name is side i's detector name.
func (v Verdicts) Name(i int) string { return v.names[i] }

// Alerted reports whether any side alerted (1-out-of-N, the paper's
// maximum-detection scheme).
func (v Verdicts) Alerted() bool { return ensemble.Assess(v.verdicts).Alerted }

// Confirmed reports whether a strict majority of the sides alerted. On a
// pair guard that is 2-out-of-2, the paper's minimum-false-alarm scheme;
// with the trajectory side it is the 2-out-of-3 majority, which keeps
// confirmation strict while letting any one detector sit out; four sides
// confirm at three alerts.
func (v Verdicts) Confirmed() bool { return ensemble.Assess(v.verdicts).Confirmed }

// Config parameterises the guard.
type Config struct {
	// Policy selects the mitigation policy: typically mitigate.Graduated()
	// for the full escalation ladder, or a static one — mitigate.Tag(), or
	// mitigate.StaticBlock(true) for the serial-confirmation deployment the
	// paper sketches. Its ConfirmedOnly makes any policy act only on
	// confirmed requests, where a strict majority of the sides alerted
	// (Verdicts.Confirmed: both of a pair, two of three). Nil observes:
	// everything passes and verdicts are only recorded.
	Policy *mitigate.Policy
	// TrustedProxies lists the peers (IPs or CIDR prefixes) allowed to
	// assert the client address via X-Forwarded-For / X-Real-IP. When the
	// immediate peer is listed here, the guard keys detection and
	// enforcement by the forwarded client address; otherwise a deployment
	// behind a proxy would collapse all traffic into one client.
	TrustedProxies []string
	// OnVerdict, if set, observes every request's verdicts after the
	// response completes. Called synchronously; keep it fast.
	OnVerdict func(entry logfmt.Entry, v Verdicts)
	// OnDecision, if set, observes the enforcement decision taken for
	// every request, keyed by the derived client address in entry.
	// Called synchronously before the response is written.
	OnDecision func(entry logfmt.Entry, v Verdicts, d mitigate.Decision)
	// Sentinel and Arcane override detector configurations.
	Sentinel sentinel.Config
	// Arcane overrides the behavioural detector configuration.
	Arcane arcane.Config
	// EnableTrajectory adds the semantic trajectory detector as a third
	// judging side on every shard. Alerted becomes 1-out-of-3 and
	// Confirmed the 2-out-of-3 majority; snapshots grow a trajectory
	// block (a pair guard cannot restore a trajectory snapshot, or vice
	// versa — restore guards refuse mismatched layouts).
	EnableTrajectory bool
	// Trajectory overrides the trajectory detector configuration. Only
	// consulted with EnableTrajectory; a nil Model selects the shared
	// default benign-trained model.
	Trajectory trajectory.Config
	// Shards partitions detection state by client IP across this many
	// independently locked detector sets; clients never contend across
	// shards. Default GOMAXPROCS.
	Shards int
	// EvictWindow bounds how long idle per-client detector state survives:
	// the periodic per-shard sweep drops sessions untouched for longer.
	// Zero selects twice the longest idle timeout the sides report
	// (detector.Idler; verdict-neutral by the eviction-equivalence
	// argument), and no detector sweep when a side reports none; negative
	// disables the detector sweep (the mitigation engine still sweeps by
	// its IdleTTL).
	EvictWindow time.Duration
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
	// Sleep overrides the tarpit stall (tests and benchmarks substitute
	// a no-op). When nil the tarpit uses a timer that also observes the
	// request context, so disconnected clients release their goroutines.
	Sleep func(time.Duration)
	// Degraded selects what the guard does with requests it cannot fully
	// judge — shed by admission control, or inspected while a detector
	// is quarantined after a panic. Default FailOpen.
	Degraded DegradedMode
	// MaxInFlight bounds concurrently judged requests per shard; excess
	// requests are shed to the Degraded policy instead of queueing on
	// the shard lock. Challenge-flow requests are exempt (a client must
	// always be able to solve its way back down the ladder). Default
	// 256; negative disables the gate.
	MaxInFlight int
	// QuarantineBackoff is how long a detector that panicked stays
	// quarantined before a restore attempt; repeat panics double it, up
	// to 32×. Default 30s.
	QuarantineBackoff time.Duration
	// OnDegraded, if set, observes failure-plane transitions (detector
	// quarantines and restores). Called synchronously under the shard
	// lock: keep it fast and never call back into the guard.
	OnDegraded func(DegradedEvent)
	// Trace, when non-nil, enables the decision provenance plane:
	// per-stage latency histograms in the guard's metrics registry and a
	// sampled flight recorder of complete decision records (feature
	// snapshot, per-detector verdicts and reasons, ensemble outcome,
	// mitigation rung before/after), served at DebugTracePath and
	// DebugExplainPath. The zero trace.RecorderConfig takes the
	// documented sampling defaults; escalations are always captured.
	// Nil keeps the decide path entirely trace-free — steady-state
	// ServeHTTP stays 0 allocs/request with the plane compiled in.
	Trace *trace.RecorderConfig
	// EnablePprof mounts net/http/pprof's profile handlers under
	// /debug/pprof/ on DebugHandler. Off by default: the debug mux is
	// often reachable from operations networks where exposing heap and
	// CPU profiles should be a deliberate choice.
	EnablePprof bool
}

// sessionHolder is what the guard asks of a side's detector beyond
// judging, snapshots and eviction: its live session count (gauges, State).
type sessionHolder interface {
	Sessions() int
}

// guardShard is one key-partition of enrichment, detection and
// enforcement state: the decision core the pipeline's shards run too
// (internal/shard — a private enricher and instance of every side, a
// mitigation engine, the judging step, its failure plane and its lock)
// plus what only an inline deployment needs: admission control and the
// counters. The lock guards the enricher's tables and detector and engine
// mutation; counters are atomics updated outside it, so the critical
// section is exactly the per-client state and nothing else.
type guardShard struct {
	*shard.Shard
	g *Guard

	// req is judging scratch, guarded by the lock. The detectors are
	// reached through an interface, so a request on judge's stack would
	// escape to the heap on every call; the shard owns one instead.
	req detector.Request

	// inflight is the admission-control gauge: incremented before the
	// shard lock is taken, so the shed decision itself never queues.
	inflight atomic.Int64

	counts [nCounts]atomic.Uint64
}

// A shard's counters, in the order a guard snapshot writes them: requests
// seen and alerted, solved challenge beacons, then one per enforcement
// action in mitigate.Action's order.
const (
	cTotal = iota
	cAlerted
	cPassed
	cAllowed
	cTarpitted
	cChallenged
	cBlocked
	nCounts
)

// load reads the shard's counters.
func (s *guardShard) load() (c [nCounts]uint64) {
	for i := range c {
		c[i] = s.counts[i].Load()
	}
	return c
}

// actionCounts is the enforcement tally of a counter set.
func actionCounts(c [nCounts]uint64) mitigate.ActionCounts {
	return mitigate.ActionCounts{Allowed: c[cAllowed], Tarpitted: c[cTarpitted], Challenged: c[cChallenged], Blocked: c[cBlocked]}
}

// sweepEvery is the per-shard request period between enforcement-state
// eviction sweeps.
const sweepEvery = 4096

// Guard is the middleware instance. Create with New, wrap handlers with
// Wrap.
type Guard struct {
	cfg    Config
	policy mitigate.Policy
	// factories build each shard's sides; names are the sides' names and
	// tags their X-Scrape-Verdict values (roleTag).
	factories []detector.Factory
	names     []string
	tags      [][]string
	trusted   trustedNets
	// rep is the reputation DB every shard's enricher resolves against,
	// built once and never mutated, so lookups take no lock. seq numbers
	// the requests in arrival order.
	rep     *iprep.DB
	seq     atomic.Uint64
	recPool sync.Pool // *statusRecorder, one per request in flight

	// Observability surface (debug.go): the registry reads the atomic
	// counters below and on the shards; latency lands in the histogram on
	// every request. evicted counts sessions dropped by windowed sweeps.
	metrics *metrics.Registry
	latency *metrics.Histogram
	evicted atomic.Uint64
	sweeps  atomic.Uint64

	// trace is the provenance plane (trace.go); nil when Config.Trace is
	// nil, which every span and capture call site tolerates at the cost
	// of one nil check.
	trace *trace.Tracer

	// Failure-plane counters (failure.go): requests shed by admission
	// control, requests judged with a quarantined detector sitting out,
	// and per-detector panic/restore tallies. Guard-level rather than
	// per-shard so they survive Rebalance.
	shed         atomic.Uint64
	degradedReqs atomic.Uint64
	panics       []atomic.Uint64
	restores     []atomic.Uint64

	// escFrozen mirrors the cluster plane's degraded fail-closed state at
	// the guard level (cluster.go): it survives Rebalance, which rebuilds
	// the shard engines and must re-apply the freeze to the new set.
	escFrozen atomic.Bool

	// mu guards the shard set itself: requests hold it shared for the
	// duration of a decision, Rebalance and state restore hold it
	// exclusively while they swap or rewrite the set. The per-shard mutex
	// below it still serialises per-client state; this lock only makes
	// the shard *topology* safely mutable at runtime. set is the same
	// shards as their decision cores, the form the state codecs and the
	// cluster plane work on; setShards assigns both.
	mu     sync.RWMutex
	shards []*guardShard
	set    shard.Set
}

// New builds a guard with its own detectors, mitigation engines and
// reputation feed. Its sides are the registry's: the paper's pair, and the
// trajectory detector with Config.EnableTrajectory.
func New(cfg Config) (*Guard, error) {
	names := registry.Default
	if cfg.EnableTrajectory {
		names = append(slices.Clip(names), "trajectory")
	}
	factories, err := registry.Factories(registry.Config{
		Sentinel: cfg.Sentinel, Arcane: cfg.Arcane, Trajectory: cfg.Trajectory}, names...)
	if err != nil {
		return nil, fmt.Errorf("httpguard: %w", err)
	}
	return newWithFactories(cfg, factories)
}

// newWithFactories builds a guard judging with one side per factory, in
// order; nothing below New knows which detectors they are.
func newWithFactories(cfg Config, factories []detector.Factory) (*Guard, error) {
	policy := mitigate.Observe()
	if cfg.Policy != nil {
		policy = *cfg.Policy
	}
	trusted, err := parseTrustedProxies(cfg.TrustedProxies)
	if err != nil {
		return nil, fmt.Errorf("httpguard: %w", err)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.QuarantineBackoff <= 0 {
		cfg.QuarantineBackoff = 30 * time.Second
	}
	switch {
	case cfg.MaxInFlight == 0:
		cfg.MaxInFlight = 256
	case cfg.MaxInFlight < 0:
		cfg.MaxInFlight = 0 // gate disabled
	}
	// One throwaway instance of each side gives its name and idle timeout.
	dets, err := detector.Build(factories)
	if err != nil {
		return nil, fmt.Errorf("httpguard: %w", err)
	}
	names, tags := make([]string, len(dets)), make([][]string, len(dets))
	for i, d := range dets {
		names[i] = d.Name()
		tags[i] = roleTag(registry.Role(names[i]))
	}
	if cfg.EvictWindow == 0 {
		// Twice the longest idle timeout: comfortably inside the
		// verdict-neutral regime even with sweeps landing mid-window.
		cfg.EvictWindow = 2 * detector.Horizon(dets)
	}
	g := &Guard{
		cfg:       cfg,
		policy:    policy,
		factories: factories,
		names:     names,
		tags:      tags,
		trusted:   trusted,
		rep:       iprep.BuildFeed(),
		panics:    make([]atomic.Uint64, len(dets)),
		restores:  make([]atomic.Uint64, len(dets)),
	}
	g.recPool.New = func() any { return &statusRecorder{verdicts: make([]detector.Verdict, len(dets))} }
	// The registry and the tracer come first: every shard's decision core
	// is built holding the tracer.
	g.buildMetrics()
	if cfg.Trace != nil {
		g.trace = trace.New(trace.Config{
			Registry:  g.metrics,
			Detectors: names,
			Now:       cfg.Now,
			Recorder:  *cfg.Trace,
		})
	}
	shards, err := g.newShards(cfg.Shards)
	if err != nil {
		return nil, err
	}
	g.setShards(shards)
	return g, nil
}

// newShards builds a fresh shard set: per shard, one instance of every
// side from its factory and a mitigation engine, all configured alike,
// each shard reporting its failure plane's transitions to the guard.
func (g *Guard) newShards(n int) ([]*guardShard, error) {
	shards := make([]*guardShard, n)
	for i := range shards {
		core, err := shard.New(g.factories, nil, &g.policy, g.rep)
		if err != nil {
			return nil, fmt.Errorf("httpguard: %w", err)
		}
		for j, d := range core.Dets {
			if _, ok := d.(sessionHolder); !ok {
				return nil, fmt.Errorf("httpguard: %s detector exposes no session view", core.Names[j])
			}
		}
		core.Index, core.Window, core.Tracer = i, g.cfg.EvictWindow, g.trace
		core.Backoff, core.RefuseDegraded = g.cfg.QuarantineBackoff, g.cfg.Degraded == FailClosed
		core.OnHealth = func(side int, at time.Time, p *shard.PanicError) { g.notifyDegraded(i, side, at, p) }
		shards[i] = &guardShard{Shard: core, g: g}
	}
	return shards, nil
}

// setShards installs a shard set. The caller holds g.mu exclusively, or
// is still building the guard.
func (g *Guard) setShards(shards []*guardShard) {
	g.shards, g.set = shards, coresOf(shards)
}

// coresOf is a shard set as its decision cores.
func coresOf(shards []*guardShard) shard.Set {
	set := make(shard.Set, len(shards))
	for i, s := range shards {
		set[i] = s.Shard
	}
	return set
}

// Shards reports the number of detection-state partitions.
func (g *Guard) Shards() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.shards)
}

// Policy returns the effective mitigation policy.
func (g *Guard) Policy() mitigate.Policy { return g.policy }

// Stats reports lifetime counters summed across shards: requests seen,
// requests alerted (by any side) and requests blocked.
func (g *Guard) Stats() (total, alerted, blocked uint64) {
	s := g.StatsDetail()
	return s.Total, s.Alerted, s.Actions.Blocked
}

// GuardStats is the lifetime counter snapshot across all shards.
type GuardStats struct {
	// Total and Alerted count requests seen and requests any side alerted
	// on (1-out-of-N).
	Total, Alerted uint64
	// Actions tallies enforcement outcomes.
	Actions mitigate.ActionCounts
	// ChallengesPassed counts solved challenge beacons.
	ChallengesPassed uint64
}

// StatsDetail reports the full counter snapshot summed across shards. The
// counters are lock-free atomics, so the snapshot is a consistent point
// per counter but not across counters — the usual monitoring contract.
func (g *Guard) StatsDetail() GuardStats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	c := g.sums()
	return GuardStats{Total: c[cTotal], Alerted: c[cAlerted], Actions: actionCounts(c), ChallengesPassed: c[cPassed]}
}

// sums adds up each counter across the shards. The caller holds g.mu.
func (g *Guard) sums() (c [nCounts]uint64) {
	for _, s := range g.shards {
		for i, n := range s.load() {
			c[i] += n
		}
	}
	return c
}

// challengeBody is the interstitial served in place of content at the
// Challenge rung; loading it in a browser runs the challenge script,
// which posts the solution beacon.
const challengeBody = `<!doctype html>
<html><head><script src="` + sitemodel.ChallengeScriptPath + `"></script></head>
<body>Checking your browser&hellip; reload in a moment.</body></html>
`

// challengeScript proves a JavaScript runtime by posting the verify
// beacon. (A production deployment would compute a signed token here; the
// reproduction's protocol is the beacon itself, matching sitemodel.)
const challengeScript = `(function(){var x=new XMLHttpRequest();x.open("POST","` +
	sitemodel.ChallengeVerifyPath + `");x.send();})();
`

// Response bodies as byte slices, written directly (fmt would allocate on
// the hot path's interface boxing). A refusal body is what http.Error
// writes: the message and a newline.
var (
	challengeScriptBytes = []byte(challengeScript)
	challengeBodyBytes   = []byte(challengeBody)
	degradedBody         = []byte("detection degraded, retry shortly\n")
	blockedBody          = []byte("automated scraping detected\n")
)

// Response header values, shared by every response that carries them:
// answer assigns them into the header map, where Header().Set would build
// a one-element slice per call — an object per refused request, the
// traffic a scraper makes most of. Each has len == cap, so an application
// or middleware that Adds to such a header appends into a copy of its own
// and never writes into the shared array; Set replaces the slice.
var (
	verdictDegraded    = []string{"degraded"}
	verdictBlocked     = []string{"blocked"}
	verdictChallenge   = []string{"challenge"}
	verdictConfirmed   = []string{"confirmed"}
	verdictCommercial  = []string{"commercial"}
	verdictBehavioural = []string{"behavioural"}
	verdictTrajectory  = []string{"trajectory"}
	retryAfter         = []string{"1"}
	contentTypeHTML    = []string{"text/html; charset=utf-8"}
	contentTypeJS      = []string{"text/javascript; charset=utf-8"}
	contentTypeText    = []string{"text/plain; charset=utf-8"}
	noSniff            = []string{"nosniff"}
)

// Wrap returns a handler that judges every request before delegating to
// next.
func (g *Guard) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Pre-decision uses the request view with a provisional status;
		// the final verdict below re-records with the real status for
		// accurate session state. Products make the same compromise: the
		// block/allow decision cannot wait for the response.
		entry := g.entryFor(r, http.StatusOK, 0)
		// The pooled recorder is the request's scratch: it holds the
		// verdicts the callbacks' Verdicts view, and records the status of
		// a request let through.
		rec := g.recPool.Get().(*statusRecorder)
		verdicts, out := g.decide(entry, rec.verdicts)
		if g.cfg.OnDecision != nil {
			g.cfg.OnDecision(entry, verdicts, out.Ladder)
		}
		entry.Status = g.answer(w, r, next, rec, verdicts, out)
		if g.cfg.OnVerdict != nil {
			g.cfg.OnVerdict(entry, verdicts)
		}
		g.recPool.Put(rec)
		g.observeLatency(entry.Time)
	})
}

// answer writes the response the outcome calls for — reaching next only
// for a request let through — and returns its status. Every header it
// writes takes one of the shared, len == cap values above, and a refusal
// is written by refuse, not http.Error: the response is byte for byte the
// same, and costs no allocation.
func (g *Guard) answer(w http.ResponseWriter, r *http.Request, next http.Handler, rec *statusRecorder, verdicts Verdicts, out shard.Outcome) int {
	dec := out.Ladder
	switch {
	// The challenge flow is hosted by the guard itself and always
	// reachable — no client could otherwise solve its way back down the
	// ladder, and a degraded guard still verifies beacons. Which requests
	// those are is the shard's call (shard.FlowOf, the path class the
	// detectors see), never a second reading of the URL here.
	case out.Flow == shard.FlowScript:
		w.Header()["Content-Type"] = contentTypeJS
		w.Write(challengeScriptBytes)
		return http.StatusOK
	case out.Flow == shard.FlowVerify:
		w.WriteHeader(http.StatusNoContent)
		return http.StatusNoContent
	// Degraded judgement under FailClosed is refused with 503 — not 403,
	// the client did nothing wrong; the guard is impaired. Under FailOpen
	// (the default) the request is served on whatever judgement remained.
	case out.Degraded && g.cfg.Degraded == FailClosed:
		h := w.Header()
		h["X-Scrape-Verdict"] = verdictDegraded
		h["Retry-After"] = retryAfter
		refuse(w, http.StatusServiceUnavailable, degradedBody)
		return http.StatusServiceUnavailable
	case dec.Action == mitigate.Block:
		w.Header()["X-Scrape-Verdict"] = verdictBlocked
		refuse(w, http.StatusForbidden, blockedBody)
		return http.StatusForbidden
	case dec.Action == mitigate.Challenge:
		h := w.Header()
		h["X-Scrape-Verdict"] = verdictChallenge
		h["Content-Type"] = contentTypeHTML
		h["Retry-After"] = retryAfter
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write(challengeBodyBytes)
		return http.StatusServiceUnavailable
	case dec.Action == mitigate.Tarpit:
		g.tarpit(r.Context(), dec.Delay)
	}
	if dec.Tagged {
		w.Header()["X-Scrape-Verdict"] = g.verdictTag(verdicts)
	}
	rec.ResponseWriter, rec.status = w, http.StatusOK
	next.ServeHTTP(rec, r)
	rec.ResponseWriter = nil
	return rec.status
}

// decide runs the decision step on the client's shard, copying the sides'
// verdicts into dst, one per side, which the returned view reads. Only enrichment,
// detector-state and engine mutation sit inside the shard lock; all
// counters are atomics updated outside the critical section. An unjudged
// outcome — the challenge flow's own requests, a fail-closed refusal, a
// request shed by admission control (Degraded, like one a quarantined side
// sat out of) — carries the zero Allow decision.
func (g *Guard) decide(entry logfmt.Entry, dst []detector.Verdict) (Verdicts, shard.Outcome) {
	seq := g.seq.Add(1) - 1
	// The shard set is held shared for the whole decision (including the
	// counter updates), so a concurrent Rebalance observes either all of
	// this request's effects on the old topology or none: requests are
	// never dropped, only briefly delayed while the swap runs.
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, _ := shard.OfKey(entry.RemoteAddr, len(g.shards))
	s := g.shards[i]

	// Admission control: the in-flight gauge is checked before the shard
	// lock is ever taken, so a shed decision costs two atomic ops and no
	// queueing — the point of the gate is that overload never reaches
	// the lock. Challenge-flow requests are exempt; the path class that
	// tells them apart is pure, so it is read here, before enrichment.
	gated := g.cfg.MaxInFlight > 0 &&
		s.FlowOf(sitemodel.ClassifyPath(entry.Path).Kind, entry.Method) == shard.FlowNone
	if gated && s.inflight.Add(1) > int64(g.cfg.MaxInFlight) {
		s.inflight.Add(-1)
		s.counts[cTotal].Add(1)
		g.shed.Add(1)
		clear(dst)
		return Verdicts{g.names, dst}, shard.Outcome{Degraded: true}
	}

	// The count-based sweep cadence stays per-shard and deterministic
	// under a test clock; the ticket is drawn before the lock so the
	// sweep itself is the only extra work ever done inside it.
	sweep := s.counts[cTotal].Add(1)%sweepEvery == 0

	// The admission gauge is released on every exit from here on —
	// including a panic escaping the sweep or engine path below — or a
	// single fault would leak admission slots until the shard sheds
	// everything. Open-coded, so the non-shed path stays zero-alloc.
	if gated {
		defer s.inflight.Add(-1)
	}
	out := s.judge(&entry, seq, sweep, dst)
	v := Verdicts{g.names, dst}

	if out.Degraded {
		g.degradedReqs.Add(1)
	}
	if v.Alerted() {
		s.counts[cAlerted].Add(1)
	}
	if out.Flow == shard.FlowVerify {
		s.counts[cPassed].Add(1)
	}
	s.counts[cAllowed+int(out.Ladder.Action)].Add(1)
	return v, out
}

// judge is the shard-locked portion of a decision: enrichment on the
// shard, the periodic sweep, then the step itself. The unlock is
// deferred: the detector calls sit behind the shard's failure plane, but a
// panic escaping the enricher, the sweep or the engine path — the same
// corrupted-state-machine failure, just surfacing in Snapshot or Apply
// instead of Inspect — must not leave the shard mutex held forever and
// the shard hung. The flight record is captured
// inside the step, so under the lock: its feature snapshot aliases the
// detectors' scratch vectors, which the next request on this shard
// overwrites.
func (s *guardShard) judge(entry *logfmt.Entry, seq uint64, sweep bool, dst []detector.Verdict) (out shard.Outcome) {
	s.Lock()
	defer s.Unlock()
	s.req.Seq, s.req.Entry = seq, *entry
	ts := s.Tracer.Now()
	s.Enrich(&s.req)
	s.Tracer.Lap(trace.StageEnrich, ts)
	// Periodic eviction bounds state growth: hostile traffic rotates
	// through fresh addresses, and idle, decayed clients would otherwise
	// accumulate forever. The same slot sweeps the shard's detector
	// session stores and its enricher's addresses on the configured
	// retention window, so a long-lived guard's memory stays O(clients
	// active in the window), and refreshes every healthy side's restore
	// point — the state a panicking side comes back from.
	if sweep {
		n := s.Sweep(s.req.Entry.Time)
		s.RefreshLastGood()
		s.g.sweeps.Add(1)
		s.g.evicted.Add(uint64(n))
	}
	s.Judge(&s.req, &out)
	copy(dst, s.Verdicts())
	return out
}

// entryFor converts a live request into the Combined Log Format view,
// deriving the client address through any trusted proxy chain.
func (g *Guard) entryFor(r *http.Request, status int, size int64) logfmt.Entry {
	user := "-"
	if u, _, ok := r.BasicAuth(); ok && u != "" {
		user = u
	}
	path := r.URL.RequestURI()
	if path == "" {
		path = "/"
	}
	return logfmt.Entry{
		RemoteAddr: g.clientIP(r),
		Identity:   "-",
		AuthUser:   user,
		// The skew fault point lets the chaos suite shift the guard's
		// clock without touching Config.Now; disarmed it adds one atomic
		// load and a zero Add.
		Time:      g.cfg.Now().Add(fiClock.Skew()),
		Method:    r.Method,
		Path:      path,
		Proto:     r.Proto,
		Status:    status,
		Bytes:     size,
		Referer:   headerOrDash(r, "Referer"),
		UserAgent: headerOrDash(r, "User-Agent"),
	}
}

func headerOrDash(r *http.Request, name string) string {
	if v := r.Header.Get(name); v != "" {
		return v
	}
	return "-"
}

// refuse writes what http.Error(w, msg, code) does for a body of msg and
// a newline: the same status, header set and bytes, from shared values.
func refuse(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	delete(h, "Content-Length")
	h["Content-Type"] = contentTypeText
	h["X-Content-Type-Options"] = noSniff
	w.WriteHeader(code)
	w.Write(body)
}

// verdictTag is the X-Scrape-Verdict value of a request let through
// tagged: confirmed, or else the role of the first side that alerted (the
// last side's when none before it did).
func (g *Guard) verdictTag(v Verdicts) []string {
	if v.Confirmed() {
		return verdictConfirmed
	}
	last := len(g.tags) - 1
	for i := range last {
		if v.verdicts[i].Alert {
			return g.tags[i]
		}
	}
	return g.tags[last]
}

// roleTag is the X-Scrape-Verdict value of a side playing role: the shared
// value above, or one of its own for a role they do not name.
func roleTag(role string) []string {
	for _, v := range [][]string{verdictCommercial, verdictBehavioural, verdictTrajectory} {
		if v[0] == role {
			return v
		}
	}
	return []string{role}
}

// statusRecorder is a request's pooled scratch: the sides' verdicts, and
// the response status for the post-hoc log view.
type statusRecorder struct {
	http.ResponseWriter
	status   int
	verdicts []detector.Verdict
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}
