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
// NewDetectorSet selects detectors by name; no names is the paper's pair,
// DefaultDetectors, and DetectorPair is the two-verdict view of that set.
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
	"iter"
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

// DetectorSet is an ordered list of detectors sharing one enricher, ready
// to inspect a request stream in timestamp order. Index i of every
// verdict slice in the API refers to Detectors[i].
type DetectorSet struct {
	// Detectors are inspected in order on every request.
	Detectors []Detector

	enricher *detector.Enricher
	// req and verdicts are the per-call scratch: a Request passed through
	// the Detector interface escapes, so a stack one would cost a heap
	// object per call.
	req      Request
	verdicts []Verdict
}

// NewDetectorSet builds the named detectors (see DetectorNames) with
// their calibrated defaults and a shared reputation feed. No names
// selects the paper's pair, DefaultDetectors.
func NewDetectorSet(names ...string) (*DetectorSet, error) {
	factories, err := FactoriesFor(names...)
	if err != nil {
		return nil, err
	}
	dets, err := detector.Build(factories)
	if err != nil {
		return nil, fmt.Errorf("divscrape: %w", err)
	}
	return &DetectorSet{
		Detectors: dets,
		enricher:  detector.NewEnricher(iprep.BuildFeed(), dets...),
		verdicts:  make([]Verdict, len(dets)),
	}, nil
}

// Len returns the number of detectors.
func (s *DetectorSet) Len() int { return len(s.Detectors) }

// Names returns the detectors' names in inspection order.
func (s *DetectorSet) Names() []string {
	names := make([]string, len(s.Detectors))
	for i, d := range s.Detectors {
		names[i] = d.Name()
	}
	return names
}

// InspectInto enriches one log entry and writes one verdict per detector
// into out, which must hold at least Len() elements. Entries must arrive
// in timestamp order. Every consumed verdict slot is fully overwritten;
// the call performs no allocations in steady state.
func (s *DetectorSet) InspectInto(entry Entry, out []Verdict) {
	s.enricher.EnrichInto(&s.req, entry)
	for i, d := range s.Detectors {
		d.InspectInto(&s.req, &out[i])
	}
}

// Inspect is InspectInto with a freshly allocated verdict slice.
func (s *DetectorSet) Inspect(entry Entry) []Verdict {
	out := make([]Verdict, len(s.Detectors))
	s.InspectInto(entry, out)
	return out
}

// Enrich converts one log entry into the Request form detectors consume,
// for callers that drive the detectors individually (e.g. to build serial
// deployment topologies).
func (s *DetectorSet) Enrich(entry Entry) Request {
	return s.enricher.Enrich(entry)
}

// Reset clears all detector state.
func (s *DetectorSet) Reset() {
	for _, d := range s.Detectors {
		d.Reset()
	}
	s.enricher.Reset()
}

// EvictBefore proactively drops every detector's per-client state
// untouched since cutoff, returning the number of sessions evicted — the
// set-level face of the windowed eviction hook. Verdict-neutral while
// cutoff trails stream time by at least the detectors' idle timeouts.
func (s *DetectorSet) EvictBefore(cutoff time.Time) int {
	return detector.EvictBefore(s.Detectors, cutoff)
}

// DetectorPair is the paper's two tools — the commercial
// fingerprint/reputation/challenge detector (Distil role) at
// Detectors[0], the session-analysis detector (Arcane role) at
// Detectors[1] — with a two-verdict Inspect. Everything else is the
// embedded set's.
type DetectorPair struct{ *DetectorSet }

// NewDetectorPair builds DefaultDetectors with their calibrated defaults
// and a shared reputation feed.
func NewDetectorPair() (*DetectorPair, error) {
	set, err := NewDetectorSet(DefaultDetectors...)
	if err != nil {
		return nil, err
	}
	return &DetectorPair{set}, nil
}

// MaxReasons is the number of explanation slots a Verdict carries inline.
const MaxReasons = detector.MaxReasons

// Inspect enriches one log entry and returns both verdicts. Entries must
// arrive in timestamp order. It performs no allocations in steady state.
func (p *DetectorPair) Inspect(entry Entry) (commercial, behavioural Verdict) {
	p.InspectInto(entry, p.verdicts)
	return p.verdicts[0], p.verdicts[1]
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
// frame is a tagged block holding the enricher followed by each
// detector's name and state.
func (s *DetectorSet) SnapshotInto(w *statecodec.Writer) error {
	w.Tag(tagPair)
	s.enricher.SnapshotInto(w)
	for _, d := range s.Detectors {
		sn, ok := d.(statecodec.Snapshotter)
		if !ok {
			return fmt.Errorf("divscrape: detector %s does not support snapshots", d.Name())
		}
		w.String(d.Name())
		sn.SnapshotInto(w)
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
	if err := s.enricher.RestoreFrom(r); err != nil {
		return err
	}
	for _, d := range s.Detectors {
		sn, ok := d.(statecodec.Snapshotter)
		if !ok {
			return fmt.Errorf("divscrape: detector %s does not support snapshots", d.Name())
		}
		name := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		if name != d.Name() {
			return fmt.Errorf("%w: snapshot holds detector %q, set has %q",
				statecodec.ErrCorrupt, name, d.Name())
		}
		if err := sn.RestoreFrom(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// Snapshot writes a detector set's full detection state to w as a
// versioned, checksummed container. The snapshot captures every
// per-client session history, so a replay resumed from it continues
// exactly where this process stopped. Pass a DetectorPair's embedded set
// for the pair.
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
// names selects DefaultDetectors, and DetectorPair{set} is then the pair)
// and restores the state Snapshot wrote. Wrong-version snapshots fail
// with a typed *statecodec.VersionError; corrupt ones with
// statecodec.ErrCorrupt or statecodec.ErrChecksum — never a panic.
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
	case sharded:
		events, err := src.gen.Generate()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("generate: %w", err)
		}
		i := 0
		entries := func() (Entry, error) {
			if i >= len(events) {
				return Entry{}, io.EOF
			}
			i++
			return events[i-1].Entry, nil
		}
		return entries, func(seq uint64) bool { return events[seq].Label.Malicious() }, func() {}, nil
	}
	// Sequential: the sink runs right after the source yields, so the
	// label of the event just pulled is the one it needs.
	var genErr error
	next, stop := iter.Pull(func(yield func(Event) bool) {
		genErr = src.gen.Run(func(ev Event) error {
			if !yield(ev) {
				return errStopped
			}
			return nil
		})
	})
	var last Event
	entries := func() (Entry, error) {
		ev, ok := next()
		if !ok {
			if genErr != nil {
				return Entry{}, fmt.Errorf("generate: %w", genErr)
			}
			return Entry{}, io.EOF
		}
		last = ev
		return ev.Entry, nil
	}
	return entries, func(uint64) bool { return last.Label.Malicious() }, stop, nil
}

// errStopped ends a generator run whose consumer stopped pulling.
var errStopped = errors.New("stopped")

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
