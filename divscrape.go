// Package divscrape reproduces "Using Diverse Detectors for Detecting
// Malicious Web Scraping Activity" (Marques et al., DSN 2018) as a
// runnable system: a synthetic e-commerce traffic generator emitting
// labelled Apache access logs, independently built scraping detectors —
// a commercial-style fingerprint/reputation/challenge detector (the
// paper's Distil role), a behavioural session-analysis detector (the
// Arcane role) and a semantic trajectory detector judging navigation
// shape against a benign site-walk model — and the analysis machinery
// for alerting diversity, adjudication schemes and deployment topologies.
//
// This package is the public facade: it re-exports the main workflow so
// applications can generate traffic, run any set of the detectors and
// compute the paper's tables without importing internal packages.
// NewDetectorSet selects detectors by name (no names is the paper's pair,
// DefaultDetectors) and judges with the decision core Analyze, the CLI and
// the HTTP guard run too.
// Specialised use (custom detectors, topologies, ROC sweeps) goes through
// the same types, which alias the implementation packages.
//
// Quickstart (sequential, byte-for-byte deterministic):
//
//	gen, _ := divscrape.NewGenerator(divscrape.GeneratorConfig{Seed: 1, Duration: 6 * time.Hour})
//	summary, _ := divscrape.Analyze(divscrape.Generated(gen), divscrape.Options{})
//	fmt.Println(summary.Contingency().Both, summary.Contingency().Neither)
//
// Multi-core quickstart (sharded, all three detectors; same results,
// higher throughput):
//
//	gen, _ := divscrape.NewGenerator(divscrape.GeneratorConfig{Seed: 1, Duration: 6 * time.Hour})
//	summary, _ := divscrape.Analyze(divscrape.Generated(gen), divscrape.Options{
//		Detectors: []string{"sentinel", "arcane", "trajectory"},
//		Shards:    runtime.GOMAXPROCS(0),
//	})
//
// Analyze runs one of the detection pipeline's two engines. Sequential
// (Options.Shards ≤ 1) runs on one goroutine and is the reference; pick
// it for debugging and single-core replays. Sharded partitions traffic by
// client IP across worker shards with private detector instances, and
// delivers in one of two ways: restored to stream order in front of one
// sink — byte-identical to Sequential — or straight off every shard into
// a sink of its own, preserving per-client order and the whole-stream
// verdict multiset but not the cross-client interleaving. The second is
// the faster one, and every aggregate the paper reports is order-free, so
// it is what Analyze uses: every shard counts into a partial Summary and
// the partials merge into exactly the sequential tables. Because all
// per-client state follows the client onto one shard, every engine and
// delivery judges every request identically — they trade delivery-order
// guarantees for throughput, never accuracy.
package divscrape

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/diversity"
	"divscrape/internal/evaluate"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/metrics"
	"divscrape/internal/mitigate"
	"divscrape/internal/pipeline"
	"divscrape/internal/registry"
	"divscrape/internal/shard"
	"divscrape/internal/statecodec"
	"divscrape/internal/stream"
	"divscrape/internal/workload"
)

// Core request/verdict vocabulary, shared by every component.
type (
	// Entry is one Apache access-log record (Combined Log Format).
	Entry = logfmt.Entry
	// Request is an entry enriched with parse results for detectors.
	Request = detector.Request
	// Verdict is a detector's per-request judgement.
	Verdict = detector.Verdict
	// ReasonList is the fixed-capacity, allocation-free list of interned
	// reason strings a Verdict carries.
	ReasonList = detector.ReasonList
	// Detector is the streaming detector contract.
	Detector = detector.Detector
	// Label is the generator's ground truth for one request.
	Label = detector.Label
	// Archetype identifies the kind of actor behind a request.
	Archetype = detector.Archetype
	// Event is one generated request with its ground truth.
	Event = workload.Event
	// GeneratorConfig parameterises traffic generation.
	GeneratorConfig = workload.Config
	// Profile is the traffic mix.
	Profile = workload.Profile
	// Contingency is the both/neither/only agreement table over a pair
	// of detectors (the paper's Table 2).
	Contingency = diversity.Contingency
	// AgreementTable counts requests by every detector's alert decision
	// and ground truth; pair tables, confusion matrices and votes are its
	// views.
	AgreementTable = diversity.Table
	// Confusion is a labelled confusion matrix with the usual metrics.
	Confusion = evaluate.Confusion
)

// Factory constructs a fresh, independent detector instance; the sharded
// pipeline uses one factory per detector to give every shard private
// state.
type Factory = detector.Factory

// PanicError reports a detector that panicked: the side, the shard, the
// request's stream position and the panic value (see Analyze).
type PanicError = shard.PanicError

// Generator produces labelled synthetic traffic.
type Generator = workload.Generator

// NewGenerator builds a traffic generator; zero-value config fields take
// calibrated defaults (paper-shaped mix, 8-day window).
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	return workload.NewGenerator(cfg)
}

// CalibratedProfile returns the traffic mix tuned to the paper's dataset
// shape; scale multiplies actor populations.
func CalibratedProfile(scale float64) Profile {
	return workload.CalibratedProfile(scale)
}

// DefaultDetectors is the paper's pair in report order: the commercial
// role first, the behavioural role second. Every entry point that takes
// no detector names analyses this set.
var DefaultDetectors = registry.Default

// DetectorNames returns every registered detector name, sorted.
func DetectorNames() []string { return registry.Names() }

// FactoriesFor resolves detector names (see DetectorNames) to factories
// building each with its calibrated defaults, preserving order. No names
// selects DefaultDetectors. A name may appear once: a Summary finds a
// detector's table by its name.
func FactoriesFor(names ...string) ([]Factory, error) {
	fs, err := registry.Factories(registry.Config{}, names...)
	if err != nil {
		return nil, fmt.Errorf("divscrape: %w", err)
	}
	return fs, nil
}

// DetectorSet is an ordered list of detectors judging one request stream
// in timestamp order, through the decision core every host wraps
// (internal/shard): one enricher, the detectors behind its failure plane.
// Index i of every verdict slice in the API refers to Detectors[i].
type DetectorSet struct {
	// Detectors are inspected in order on every request. A side the
	// failure plane rebuilds replaces its entry in place.
	Detectors []Detector

	sh *shard.Shard
	// seq is the stream position: the next request's Seq.
	seq uint64
	// req and out are the per-call scratch: a Request passed through the
	// Detector interface escapes, so a stack one would cost a heap object
	// per call. panics collects the sides that panicked on the request
	// being judged.
	req    Request
	out    shard.Outcome
	panics []error
}

// NewDetectorSet builds the named detectors (see DetectorNames) with
// their calibrated defaults and a shared reputation feed. No names
// selects the paper's pair, DefaultDetectors.
func NewDetectorSet(names ...string) (*DetectorSet, error) {
	factories, err := FactoriesFor(names...)
	if err != nil {
		return nil, err
	}
	sh, err := shard.New(factories, nil, nil, iprep.BuildFeed())
	if err != nil {
		return nil, fmt.Errorf("divscrape: %w", err)
	}
	s := &DetectorSet{Detectors: sh.Dets, sh: sh}
	sh.OnHealth = func(_ int, _ time.Time, p *PanicError) {
		if p != nil {
			s.panics = append(s.panics, p)
		}
	}
	return s, nil
}

// Len returns the number of detectors.
func (s *DetectorSet) Len() int { return len(s.Detectors) }

// Names returns the detectors' names in inspection order.
func (s *DetectorSet) Names() []string { return slices.Clone(s.sh.Names) }

// MaxReasons is the number of explanation slots a Verdict carries inline.
const MaxReasons = detector.MaxReasons

// InspectInto enriches one log entry and writes one verdict per detector
// into out, which must hold at least Len() elements. Entries must arrive
// in timestamp order. Every consumed verdict slot is fully overwritten;
// the call performs no allocations in steady state.
//
// A detector that panics is quarantined, as on every host: its verdict is
// zero while it sits out, and it is rebuilt cold once a backoff of event
// time has passed. The call that saw the panic returns an error joining
// one *PanicError per side that panicked; the set stays usable.
func (s *DetectorSet) InspectInto(entry Entry, out []Verdict) error {
	s.req.Seq, s.req.Entry = s.seq, entry
	s.seq++
	s.sh.Enrich(&s.req)
	s.sh.Judge(&s.req, &s.out)
	copy(out, s.sh.Verdicts())
	if len(s.panics) == 0 {
		return nil
	}
	err := errors.Join(s.panics...)
	s.panics = s.panics[:0]
	return err
}

// Enrich converts one log entry into the Request form detectors consume,
// taking the next stream position, for callers that drive the detectors
// individually (e.g. to build serial deployment topologies).
func (s *DetectorSet) Enrich(entry Entry) Request {
	req := Request{Seq: s.seq, Entry: entry}
	s.seq++
	s.sh.Enrich(&req)
	return req
}

// Reset clears all detector, enricher and failure-plane state and the
// stream position, for an independent dataset.
func (s *DetectorSet) Reset() {
	s.sh.Reset()
	s.seq = 0
}

// EvictBefore proactively drops every detector's per-client state
// untouched since cutoff, returning the number of sessions evicted — the
// set-level face of the windowed eviction hook. Verdict-neutral while
// cutoff trails stream time by at least the detectors' idle timeouts.
func (s *DetectorSet) EvictBefore(cutoff time.Time) int {
	return detector.EvictBefore(s.Detectors, cutoff)
}

// Durable state plane: a set's full detection state — every detector's
// per-client histories plus the enrichment sequence counter — serialises
// through the versioned state codec, so session memory survives process
// restarts and long-running campaigns are judged across them. See
// internal/statecodec for the format and internal/pipeline for the
// equivalent Checkpoint/ResumeFrom on pipelines.

// tagPair opens a detector-set block in a snapshot. The name is the
// format's: the block was first written for the pair.
const tagPair uint16 = 0x5041

// SnapshotInto serialises the set's state through a statecodec.Writer,
// for callers composing larger snapshots; most callers want Snapshot. The
// frame is a tagged block holding the stream position followed by each
// detector's name and state. A quarantined side is written as its restore
// would leave it.
func (s *DetectorSet) SnapshotInto(w *statecodec.Writer) error {
	roles, err := shard.Set{s.sh}.Roles()
	if err != nil {
		return fmt.Errorf("divscrape: %w", err)
	}
	w.Tag(tagPair)
	detector.SnapshotSeq(w, s.seq)
	for _, role := range roles {
		w.String(role[0].Name())
		if err := detector.SnapshotRole(w, role); err != nil {
			return fmt.Errorf("divscrape: %w", err)
		}
	}
	return w.Err()
}

// RestoreFrom rebuilds the set's state from a snapshot written by a set
// with the same detectors (names and configuration). On failure the set
// is Reset — empty state, never a half-restored mix of restored and
// fresh detectors.
func (s *DetectorSet) RestoreFrom(r *statecodec.Reader) error {
	if err := s.restoreFrom(r); err != nil {
		s.Reset()
		return err
	}
	return nil
}

func (s *DetectorSet) restoreFrom(r *statecodec.Reader) error {
	if err := r.Expect(tagPair); err != nil {
		return err
	}
	seq, err := detector.RestoreSeq(r)
	if err != nil {
		return err
	}
	s.seq = seq
	set := shard.Set{s.sh}
	roles, err := set.Roles()
	if err != nil {
		return err
	}
	for _, role := range roles {
		name := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		if name != role[0].Name() {
			return fmt.Errorf("%w: snapshot holds detector %q, set has %q",
				statecodec.ErrCorrupt, name, role[0].Name())
		}
		if err := detector.RestoreRole(r, role, set.Part); err != nil {
			return err
		}
	}
	return r.Err()
}

// Snapshot writes a detector set's full detection state to w as a
// versioned, checksummed container. The snapshot captures every
// per-client session history, so a replay resumed from it continues
// exactly where this process stopped.
func Snapshot(w io.Writer, set *DetectorSet) error {
	sw := statecodec.NewWriter()
	if err := set.SnapshotInto(sw); err != nil {
		return fmt.Errorf("divscrape: snapshot: %w", err)
	}
	if err := statecodec.Encode(w, sw); err != nil {
		return fmt.Errorf("divscrape: snapshot: %w", err)
	}
	return nil
}

// Resume builds the named detectors with their calibrated defaults (no
// names selects DefaultDetectors) and restores the state Snapshot wrote.
// Wrong-version snapshots fail with a typed *statecodec.VersionError;
// corrupt ones with statecodec.ErrCorrupt or statecodec.ErrChecksum —
// never a panic.
func Resume(r io.Reader, names ...string) (*DetectorSet, error) {
	set, err := NewDetectorSet(names...)
	if err != nil {
		return nil, err
	}
	sr, err := statecodec.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("divscrape: resume: %w", err)
	}
	if err := set.RestoreFrom(sr); err != nil {
		return nil, fmt.Errorf("divscrape: resume: %w", err)
	}
	return set, nil
}

// SnapshotVersionError is the typed failure a snapshot written by an
// incompatible format version resumes with (errors.As to inspect both
// versions).
type SnapshotVersionError = statecodec.VersionError

// Snapshot decode failures, re-exported for errors.Is without importing
// the internal codec.
var (
	// ErrSnapshotCorrupt reports structurally invalid snapshot contents.
	ErrSnapshotCorrupt = statecodec.ErrCorrupt
	// ErrSnapshotChecksum reports a snapshot whose payload was damaged.
	ErrSnapshotChecksum = statecodec.ErrChecksum
)

// Summary is the outcome of analysing one traffic stream with a detector
// set. The zero value is usable only as a Merge target.
type Summary struct {
	// Detectors names the detectors in inspection order; bit i of the
	// table's alert patterns is Detectors[i]'s alert.
	Detectors []string
	// Table counts every request by the detectors' alert pattern and
	// ground truth, so it holds every pair's Table 2 (Pair), every
	// detector's confusion matrix (Confusion), the k-out-of-n votes
	// (Vote) and the all, none and only-one buckets — for any number of
	// detectors, not only the leading pair. Without labels every request
	// counts as benign.
	Table AgreementTable
	// Labelled reports whether ground truth was available.
	Labelled bool
}

// Total returns the number of requests analysed.
func (s *Summary) Total() uint64 { return s.Table.Total() }

// Contingency returns the paper's Table 2 for the first two detectors in
// inspection order (A = Detectors[0], B = Detectors[1] — the commercial
// and behavioural roles of the default pair); zero when the summary holds
// fewer than two. Table.Pair gives any other pair's.
func (s *Summary) Contingency() Contingency {
	if len(s.Detectors) < 2 {
		return Contingency{}
	}
	return s.Table.Pair(0, 1)
}

// Commercial returns the first detector's labelled confusion matrix — the
// pair-shaped view the reports print. Zero when the summary holds no
// detectors or no labels.
func (s *Summary) Commercial() Confusion { return s.confusionAt(0) }

// Behavioural returns the second detector's labelled confusion matrix.
// Zero when the summary holds fewer than two detectors or no labels.
func (s *Summary) Behavioural() Confusion { return s.confusionAt(1) }

func (s *Summary) confusionAt(i int) Confusion {
	if !s.Labelled || i >= len(s.Detectors) {
		return Confusion{}
	}
	return s.Table.Confusion(i)
}

// ConfusionOf returns the named detector's labelled confusion matrix.
func (s *Summary) ConfusionOf(name string) (Confusion, bool) {
	i := slices.Index(s.Detectors, name)
	if i < 0 {
		return Confusion{}, false
	}
	return s.confusionAt(i), true
}

// Merge folds another summary's table into s (Labelled is the caller's
// call — it describes the stream, not the counts). Analyze uses it to
// combine per-shard partial summaries; every count is commutative, so the
// fold order does not matter. A zero s adopts o's detectors, so merging
// into a zero Summary copies o.
func (s *Summary) Merge(o *Summary) {
	if s.Detectors == nil {
		s.Detectors = o.Detectors
	}
	s.Table.Merge(&o.Table)
}

// Source is a request stream Analyze reads: generated traffic, which
// carries ground truth, or an access log, which does not. Build one with
// Generated or Log.
type Source struct {
	gen *Generator
	log io.Reader
}

// Generated reads a generator's traffic; the Summary is labelled.
func Generated(gen *Generator) Source { return Source{gen: gen} }

// Log reads an access log in Combined Log Format, skipping malformed
// lines. A raw log carries no labels, so the Summary's confusion matrices
// stay zero.
func Log(r io.Reader) Source { return Source{log: r} }

// Options selects what Analyze runs.
type Options struct {
	// Detectors names the detectors (see DetectorNames) in inspection
	// order; none selects DefaultDetectors.
	Detectors []string
	// Shards ≤ 1 runs the sequential engine; more partitions the stream
	// across that many shards, each counting into a partial summary of its
	// own. The merged Summary is the sequential one.
	Shards int
}

// Analyze streams src through freshly built detectors and summarises
// alerting diversity and, for generated traffic, labelled accuracy.
//
// A detector that panics is quarantined on its shard and the stream still
// runs to its end: Analyze then returns the Summary — the panicking side's
// verdicts zero while it sat out — together with an error joining one
// *PanicError per quarantine, naming the side, the shard and the request.
//
// Each engine reads each source at the cost it needs: a sequential run
// pulls generated events one at a time and holds none of them; a sharded
// run materialises generated events so every shard can join its
// requests' labels back by sequence number, and parses a log on parallel
// workers.
func Analyze(src Source, opts Options) (*Summary, error) {
	s, err := analyze(src, opts)
	if err != nil {
		return s, fmt.Errorf("divscrape: analyze: %w", err)
	}
	return s, nil
}

func analyze(src Source, opts Options) (*Summary, error) {
	factories, err := FactoriesFor(opts.Detectors...)
	if err != nil {
		return nil, err
	}
	sharded := opts.Shards > 1
	cfg := pipeline.Config{Factories: factories, Reputation: iprep.BuildFeed()}
	if sharded {
		cfg.Mode, cfg.Shards = pipeline.Sharded, opts.Shards
	}
	pipe, err := pipeline.New(cfg)
	if err != nil {
		return nil, err
	}
	entries, malicious, closeSrc, err := src.open(sharded)
	if err != nil {
		return nil, err
	}
	defer closeSrc()

	labelled := malicious != nil
	partials := make([]*Summary, pipe.Shards())
	sinks := make([]pipeline.Sink, pipe.Shards())
	for i := range sinks {
		table, err := diversity.NewTable(len(pipe.Detectors()))
		if err != nil {
			return nil, err
		}
		part := &Summary{Detectors: pipe.Detectors(), Table: table}
		partials[i] = part
		sinks[i] = func(d pipeline.Decision) error {
			part.Table.Add(d.Verdicts, labelled && malicious(d.Req.Seq))
			return nil
		}
	}
	if sharded {
		err = pipe.RunRelaxed(context.Background(), entries, sinks)
	} else {
		err = pipe.Run(context.Background(), entries, sinks[0])
	}
	failure, panics := pipeline.SplitPanics(err)
	if failure != nil {
		return nil, failure
	}
	s := &Summary{Labelled: labelled}
	for _, part := range partials {
		s.Merge(part)
	}
	return s, errors.Join(panics...)
}

// open returns src as the pipeline's entry source, the ground truth by
// sequence number (nil for a log) and what to call when the run is over.
func (src Source) open(sharded bool) (pipeline.EntrySource, func(seq uint64) bool, func(), error) {
	switch {
	case src.log != nil && sharded:
		lr := logfmt.NewParallelReader(src.log, logfmt.ParallelConfig{Policy: logfmt.Skip})
		entries := func() (Entry, error) {
			var e Entry
			err := lr.NextInto(&e)
			return e, err
		}
		return entries, nil, func() { lr.Close() }, nil
	case src.log != nil:
		lr := logfmt.NewReader(src.log, logfmt.ReaderConfig{Policy: logfmt.Skip})
		return lr.Next, nil, func() {}, nil
	case src.gen == nil:
		return nil, nil, nil, errors.New("empty Source: build one with Generated or Log")
	}
	// A sharded run judges out of stream order, so it needs every label
	// held; the sequential one labels the event it pulled last.
	gs, err := src.gen.Source(sharded)
	if err != nil {
		return nil, nil, nil, err
	}
	return gs.Next, func(seq uint64) bool { return gs.Label(seq).Malicious() }, gs.Stop, nil
}

// WriteDataset streams a generation run to an access log and label
// sidecar, returning the request count.
func WriteDataset(gen *Generator, logW, labelW io.Writer) (uint64, error) {
	return workload.WriteDataset(gen, logW, labelW)
}

// Mitigation: the response plane. Detection decides who is scraping;
// mitigation decides what to do about it. The engine folds adjudicated
// verdicts into per-client enforcement state and walks the
// Allow → Tarpit → Challenge → Block ladder; httpguard embeds one engine
// per traffic shard, and the same types drive offline what-if replays.
type (
	// MitigationPolicy parameterises the response engine.
	MitigationPolicy = mitigate.Policy
	// MitigationAction is one rung of the enforcement ladder.
	MitigationAction = mitigate.Action
	// MitigationAssessment is the adjudicated input to the engine.
	MitigationAssessment = mitigate.Assessment
	// MitigationDecision is the engine's per-request output.
	MitigationDecision = mitigate.Decision
	// MitigationEngine folds the decision stream into enforcement state.
	MitigationEngine = mitigate.Engine
)

// Enforcement ladder rungs, re-exported for callers switching on
// MitigationDecision.Action.
const (
	MitigationAllow     = mitigate.Allow
	MitigationTarpit    = mitigate.Tarpit
	MitigationChallenge = mitigate.Challenge
	MitigationBlock     = mitigate.Block
)

// Live operation: the streaming ingestion plane. A Follower tails an
// actively written access log (surviving rotation and truncation) as a
// pull-based entry source with bounded memory; a Sweeper drives windowed
// TTL eviction across every stateful layer so a long-running deployment's
// memory stays O(clients active in the window); a MetricsRegistry is the
// zero-allocation observability surface (Prometheus text + JSON). See
// `scrapedetect -follow -metrics-addr` for the assembled service and
// httpguard.Guard.DebugHandler for the inline-middleware equivalent.
type (
	// Follower tails a log file as a continuous entry source.
	Follower = stream.Follower
	// FollowerConfig parameterises NewFollower.
	FollowerConfig = stream.FollowerConfig
	// FollowerStats is the follower's progress counter snapshot.
	FollowerStats = stream.FollowerStats
	// Sweeper drives windowed eviction across registered layers.
	Sweeper = stream.Sweeper
	// Evictable is the hook a sweeper drives: drop state untouched since
	// the cutoff. Implemented by the detectors, mitigation engines,
	// session stores and the enricher.
	Evictable = detector.Evictable
	// MetricsRegistry collects counters/gauges/histograms and encodes
	// them allocation-free.
	MetricsRegistry = metrics.Registry
)

// NewFollower opens a tail-style follower on a log path; the file may not
// exist yet (a rotation target).
func NewFollower(cfg FollowerConfig) (*Follower, error) { return stream.NewFollower(cfg) }

// NewSweeper builds a windowed-eviction sweeper; drive it with Observe
// (event time) or Tick (wall clock). A window at or above every
// registered layer's idle timeout keeps eviction verdict-neutral.
func NewSweeper(window, every time.Duration) (*Sweeper, error) {
	return stream.NewSweeper(window, every, nil)
}

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewMitigationEngine validates the policy and builds an engine. Engines
// are single-threaded; shard them alongside detector state.
func NewMitigationEngine(p MitigationPolicy) (*MitigationEngine, error) {
	return mitigate.New(p)
}

// ObservePolicy returns the non-interfering response policy.
func ObservePolicy() MitigationPolicy { return mitigate.Observe() }

// TagPolicy returns the tag-only response policy.
func TagPolicy() MitigationPolicy { return mitigate.Tag() }

// StaticBlockPolicy returns the classic binary block switch.
func StaticBlockPolicy(confirmedOnly bool) MitigationPolicy {
	return mitigate.StaticBlock(confirmedOnly)
}

// GraduatedPolicy returns the calibrated escalation-ladder policy.
func GraduatedPolicy() MitigationPolicy { return mitigate.Graduated() }
