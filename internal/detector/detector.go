// Package detector defines the contract shared by all scraping detectors:
// the enriched per-request view, the verdict they emit, and the ground
// truth labels the synthetic workload attaches. Concrete detectors live in
// internal/sentinel (commercial-style), internal/arcane (behavioural,
// in-house-style), internal/trajectory (navigation-shape) and
// internal/bayes (the learned baseline); adjudication over several
// detectors lives in internal/ensemble.
package detector

import (
	"strconv"
	"time"

	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/sessions"
	"divscrape/internal/sitemodel"
	"divscrape/internal/uaparse"
)

// Request is one access-log record enriched with the parse results every
// detector needs. The pipeline builds it once per record and hands the
// same value to each detector, mirroring how the paper's two tools
// monitored "the same application layer interactions".
//
// Everything below Entry is derived from it, and only enrichment
// (Enricher) derives it: detectors read these fields
// instead of re-hashing the User-Agent or re-classifying the path, so a
// Request assembled by hand — derived fields left zero — is not a valid
// detector input. Build one with an Enricher.
type Request struct {
	// Seq is the zero-based position of the record in the stream; verdict
	// streams from different detectors align on it.
	Seq uint64
	// Entry is the parsed access-log record.
	Entry logfmt.Entry
	// UA is the parsed User-Agent.
	UA uaparse.Info
	// IP is the numeric form of Entry.RemoteAddr.
	IP uint32
	// IPCat is the reputation category of IP; iprep.Unknown when no feed
	// covers it.
	IPCat iprep.Category
	// UAHash is the FNV-1a 64 hash of Entry.UserAgent — the UAHash of
	// sessions.KeyFor(IP, Entry.UserAgent).
	UAHash uint64
	// Target is sitemodel.ClassifyPath(Entry.Path).
	Target sitemodel.PathInfo
	// RobotsDisallowed is sitemodel.DisallowedByRobots(Entry.PathOnly()).
	RobotsDisallowed bool
}

// SessionKey is the (IP, User-Agent) key per-session detectors keep their
// state under; it equals sessions.KeyFor(IP, Entry.UserAgent) without
// hashing the User-Agent again.
func (r *Request) SessionKey() sessions.Key {
	return sessions.Key{IP: r.IP, UAHash: r.UAHash}
}

// MaxReasons is the number of explanation slots a Verdict carries inline.
// Three matches what operators scan in an alert console; deeper forensics
// re-derive the full contribution list offline.
const MaxReasons = 3

// ReasonList is a fixed-capacity list of interned reason strings carried
// inline by a Verdict. Detectors fill it with pre-interned signal-name
// constants (their feature names), so recording reasons performs no
// allocation — this replaced the per-alert []string that dominated the
// decision plane's garbage. The zero value is empty and ready to use, and
// two lists with the same contents compare equal with ==.
type ReasonList struct {
	n uint8
	a [MaxReasons]string
}

// ReasonsOf builds a list from names; entries beyond MaxReasons are
// dropped. Intended for tests and adjudicators, not hot paths.
func ReasonsOf(names ...string) ReasonList {
	var r ReasonList
	for _, s := range names {
		r.Append(s)
	}
	return r
}

// Append adds name to the list; once full, further appends are dropped
// (reasons are ordered most significant first, so overflow loses only the
// weakest signals).
func (r *ReasonList) Append(name string) {
	if int(r.n) < MaxReasons {
		r.a[r.n] = name
		r.n++
	}
}

// Len returns the number of recorded reasons.
func (r *ReasonList) Len() int { return int(r.n) }

// At returns the i-th reason (0 ≤ i < Len).
func (r *ReasonList) At(i int) string { return r.a[i] }

// View returns the recorded reasons as a slice aliasing the list's inline
// storage: no allocation, but valid only while the Verdict holding the
// list is live — for pipeline decisions, that means during the sink call.
func (r *ReasonList) View() []string { return r.a[:r.n] }

// Strings returns an allocated copy of the reasons, for callers that keep
// them past the decision's lifetime (reports, logs).
func (r *ReasonList) Strings() []string {
	if r.n == 0 {
		return nil
	}
	return append([]string(nil), r.a[:r.n]...)
}

// Join concatenates the reasons with sep (report formatting; allocates).
func (r *ReasonList) Join(sep string) string {
	switch r.n {
	case 0:
		return ""
	case 1:
		return r.a[0]
	}
	n := len(sep) * (int(r.n) - 1)
	for _, s := range r.a[:r.n] {
		n += len(s)
	}
	b := make([]byte, 0, n)
	for i, s := range r.a[:r.n] {
		if i > 0 {
			b = append(b, sep...)
		}
		b = append(b, s...)
	}
	return string(b)
}

// Verdict is one detector's judgement of one request. It is a flat value —
// no heap references beyond interned string constants — so verdicts can be
// pooled, batched and copied freely without aliasing hazards.
type Verdict struct {
	// Alert reports whether the detector flags the request as scraping.
	Alert bool
	// Score is the detector's internal suspicion in [0, 1); thresholding
	// Score yields Alert, and ROC sweeps re-threshold it offline.
	Score float64
	// Reasons names the dominant signals behind an alert, most significant
	// first. Empty for non-alerts (kept cheap on the hot path).
	Reasons ReasonList
}

// Detector is a streaming scraping detector. Implementations are stateful
// (per-client histories) and must be fed requests in timestamp order; they
// are not safe for concurrent use. The pipeline gives each detector its own
// goroutine instead.
type Detector interface {
	// Name identifies the detector in reports.
	Name() string
	// Inspect judges one request, updating internal per-client state.
	Inspect(req *Request) Verdict
	// InspectInto is Inspect writing into a caller-owned Verdict, which hot
	// paths recycle through pooled batches instead of returning by value.
	// Every field of *out is overwritten.
	InspectInto(req *Request, out *Verdict)
	// Reset clears all per-client state, returning the detector to its
	// just-constructed condition.
	Reset()
}

// Explainer is implemented by detectors that can expose the feature
// vector behind their most recent verdict, so the provenance plane can
// snapshot *why* a detector scored a request — the per-decision evidence
// the paper's diversity argument needs to be auditable.
//
// LastFeatures returns the vector computed by the last InspectInto call
// and whether one was computed at all: requests short-circuited before
// scoring (authenticated users, verified search bots, warmup) leave no
// vector, and ok is false. The returned slice aliases the detector's
// reusable scratch — valid only until the next InspectInto on the same
// instance, and only meaningful from the goroutine driving it; callers
// that keep it must copy. FeatureNames aligns index-for-index with the
// vector and is immutable.
type Explainer interface {
	FeatureNames() []string
	LastFeatures() ([]float64, bool)
}

// Evictable is implemented by detectors (and other stateful components)
// that can proactively drop per-client state untouched since cutoff,
// returning the number of entries evicted. It is the hook the windowed
// eviction sweeper drives so steady-state memory stays O(clients active
// in the window) over unbounded streams.
//
// Contract: calling EvictBefore with cutoff at least the component's idle
// timeout behind stream time must not change any future verdict — the
// evicted state is exactly what lazy idle expiry would have dropped
// before it was next read. A more aggressive cutoff trades fidelity
// (sessions restart early) for memory; the pipeline never does that on
// its own.
type Evictable interface {
	EvictBefore(cutoff time.Time) int
}

// Factory constructs a fresh, independent Detector instance. The sharded
// pipeline uses factories to give each worker shard a private instance of
// every detector, so per-client session state needs no locks: a client's
// requests always hash to the same shard, and each shard's instances see
// exactly the per-client substream they would have seen in a sequential
// run.
type Factory func() (Detector, error)

// Archetype labels the kind of actor that generated a request. The first
// group is benign, the second malicious; see Malicious.
type Archetype int

const (
	// ArchetypeHuman is an interactive shopper.
	ArchetypeHuman Archetype = iota + 1
	// ArchetypeSearchBot is a well-behaved declared search crawler.
	ArchetypeSearchBot
	// ArchetypeMonitor is an uptime monitor.
	ArchetypeMonitor
	// ArchetypePartnerAPI is an authenticated partner integration calling
	// the price API with credentials (tool UA but sanctioned).
	ArchetypePartnerAPI

	// ArchetypeScraperNaive is a crude scraping kit: tool User-Agent,
	// datacenter addresses, no JavaScript, steady machine pacing.
	ArchetypeScraperNaive
	// ArchetypeScraperAggressive is a high-rate kit hiding behind canned
	// (stale) browser User-Agents, enumerating the catalogue.
	ArchetypeScraperAggressive
	// ArchetypeScraperHeadless drives a real headless browser with a clean
	// spoofed UA: it executes the JavaScript challenge and paces under rate
	// limits, but crawls mechanically.
	ArchetypeScraperHeadless
	// ArchetypeScraperStealth is a distributed botnet on residential
	// proxies: tiny per-IP volumes, rotating canned UAs, no JavaScript.
	ArchetypeScraperStealth
	// ArchetypeScraperKnownInfra operates from blocklisted scraping
	// infrastructure ranges.
	ArchetypeScraperKnownInfra
)

var archetypeNames = map[Archetype]string{
	ArchetypeHuman:             "human",
	ArchetypeSearchBot:         "search-bot",
	ArchetypeMonitor:           "monitor",
	ArchetypePartnerAPI:        "partner-api",
	ArchetypeScraperNaive:      "scraper-naive",
	ArchetypeScraperAggressive: "scraper-aggressive",
	ArchetypeScraperHeadless:   "scraper-headless",
	ArchetypeScraperStealth:    "scraper-stealth",
	ArchetypeScraperKnownInfra: "scraper-known-infra",
}

// String returns the archetype's stable name (used in label files).
func (a Archetype) String() string {
	if s, ok := archetypeNames[a]; ok {
		return s
	}
	return "archetype(" + strconv.Itoa(int(a)) + ")"
}

// ParseArchetype inverts String.
func ParseArchetype(s string) (Archetype, bool) {
	for a, name := range archetypeNames {
		if name == s {
			return a, true
		}
	}
	return 0, false
}

// Malicious reports whether the archetype is a scraper.
func (a Archetype) Malicious() bool {
	switch a {
	case ArchetypeScraperNaive, ArchetypeScraperAggressive, ArchetypeScraperHeadless,
		ArchetypeScraperStealth, ArchetypeScraperKnownInfra:
		return true
	default:
		return false
	}
}

// Archetypes lists all archetypes in declaration order.
func Archetypes() []Archetype {
	return []Archetype{
		ArchetypeHuman, ArchetypeSearchBot, ArchetypeMonitor, ArchetypePartnerAPI,
		ArchetypeScraperNaive, ArchetypeScraperAggressive, ArchetypeScraperHeadless,
		ArchetypeScraperStealth, ArchetypeScraperKnownInfra,
	}
}

// Label is the ground truth the generator attaches to each request.
type Label struct {
	// ActorID identifies the generating actor within the run.
	ActorID int
	// Archetype is the actor's kind.
	Archetype Archetype
}

// Malicious reports whether the labelled request came from a scraper.
func (l Label) Malicious() bool { return l.Archetype.Malicious() }
