// Package sentinel implements a commercial-style bot-mitigation detector in
// the mould of the product the DSN 2018 paper pairs with the in-house tool:
// it judges each request with fast, mostly per-request evidence — User-Agent
// signatures and fingerprint-consistency checks, IP reputation feeds, a
// JavaScript challenge flow, request-rate conformance, and per-IP User-Agent
// rotation. Its verdicts are decisive from the very first request of a bad
// client, which is exactly what makes it diverse from the behavioural
// detector in internal/arcane (strong early, blind to clean-fingerprint
// automation).
package sentinel

import (
	"fmt"
	"time"

	"divscrape/internal/anomaly"
	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/ratelimit"
	"divscrape/internal/sessions"
	"divscrape/internal/sitemodel"
	"divscrape/internal/stats"
	"divscrape/internal/uaparse"
)

// Feature names used in verdict explanations.
const (
	featSignature  = "ua-signature"
	featReputation = "ip-reputation"
	featSpoofedBot = "spoofed-search-bot"
	featRate       = "rate-violation"
	featChallenge  = "challenge-unsolved"
	featRotation   = "ua-rotation"
)

// featIndex fixes the slot layout of the flat feature vector the detector
// reuses across requests; the composite scorer is declared in the same
// order, so slot i here is feature i there.
var featIndex = detector.NewFeatureIndex(
	featSignature, featReputation, featSpoofedBot, featRate, featChallenge, featRotation,
)

// Vector slots, resolved once at init.
var (
	idxSignature  = featIndex.Index(featSignature)
	idxReputation = featIndex.Index(featReputation)
	idxSpoofedBot = featIndex.Index(featSpoofedBot)
	idxRate       = featIndex.Index(featRate)
	idxChallenge  = featIndex.Index(featChallenge)
	idxRotation   = featIndex.Index(featRotation)
)

// Config tunes the detector. Zero values select the defaults documented on
// each field.
type Config struct {
	// AlertThreshold is the composite score above which a request alerts.
	// The default 0.18 is calibrated so that a declared automation tool,
	// a blocklisted source address, or a spoofed search-bot claim each
	// alert on their own, while weaker signals (datacenter reputation,
	// an unsolved challenge, rate pressure) must combine. Default 0.18.
	AlertThreshold float64
	// SustainedRate is the per-IP request rate (req/s) considered the
	// ceiling of human browsing. Default 1.5.
	SustainedRate float64
	// BurstSize is the rate limiter's burst allowance. Default 40.
	BurstSize float64
	// ChallengeGracePages is how many HTML pages a browser-claiming client
	// may fetch before an unexecuted JavaScript challenge becomes a
	// signal. Default 3.
	ChallengeGracePages int
	// RotationThreshold is the number of distinct User-Agents from one IP
	// beyond which rotation scores. Default 12.
	RotationThreshold int
	// IdleTimeout evicts per-IP state after inactivity. Default 60m.
	IdleTimeout time.Duration
	// Era bounds plausible browser versions; zero value selects
	// uaparse.Era2018 (the paper's capture window).
	Era uaparse.Era
	// InspectAuthUsers, when true, also inspects requests carrying an
	// authenticated user. By default authenticated partner traffic is
	// trusted, as deployments whitelist credentialed integrations.
	InspectAuthUsers bool
}

// DefaultConfig returns the tuned defaults used by the evaluation.
func DefaultConfig() Config {
	return Config{
		AlertThreshold:      0.18,
		SustainedRate:       1.5,
		BurstSize:           40,
		ChallengeGracePages: 3,
		RotationThreshold:   12,
		IdleTimeout:         time.Hour,
		Era:                 uaparse.Era2018(),
	}
}

func (c *Config) applyDefaults() {
	d := DefaultConfig()
	if c.AlertThreshold <= 0 {
		c.AlertThreshold = d.AlertThreshold
	}
	if c.SustainedRate <= 0 {
		c.SustainedRate = d.SustainedRate
	}
	if c.BurstSize <= 0 {
		c.BurstSize = d.BurstSize
	}
	if c.ChallengeGracePages <= 0 {
		c.ChallengeGracePages = d.ChallengeGracePages
	}
	if c.RotationThreshold <= 0 {
		c.RotationThreshold = d.RotationThreshold
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = d.IdleTimeout
	}
	if c.Era == (uaparse.Era{}) {
		c.Era = d.Era
	}
}

// ipState is the per-client-address memory: plain values, kept inline in
// the store's slab, so a tracked address is no heap object of its own. It
// holds state only: the limiter's and the window's parameters are the
// detector's, one value for every client.
type ipState struct {
	limiter         ratelimit.GCRA
	window          ratelimit.SlidingWindow
	uaSeen          stats.CountSet
	challengeSolved bool
	pagesNoSolve    int
	violations      uint64
	requests        uint64
}

// Detector is the commercial-style detector. Not safe for concurrent use.
type Detector struct {
	cfg     Config
	limit   ratelimit.Limit  // the rate every client's limiter admits
	window  ratelimit.Window // the span every client's rate window counts
	checker *uaparse.Checker
	scorer  *anomaly.Composite
	store   *sessions.Store[ipState]

	// Per-request scratch, reused to keep Inspect allocation-free.
	vec      []float64
	contribs []anomaly.Contribution
	viols    []uaparse.Violation
	// vecValid marks vec as holding the last request's features; requests
	// short-circuited before scoring leave it false so the provenance
	// plane never snapshots a stale vector.
	vecValid bool
}

var (
	_ detector.Detector  = (*Detector)(nil)
	_ detector.Explainer = (*Detector)(nil)
)

// New builds a detector with cfg (zero fields take defaults).
func New(cfg Config) (*Detector, error) {
	cfg.applyDefaults()
	// Weights are fractions of a total of 10; scales set each signal's
	// half-strength point. Decision calibration (threshold 0.18):
	// a tool UA (severity 3 → 0.86 squashed × 0.22) or a blocklisted
	// address (1.0 suspicion → 0.74 × 0.25) alert alone; datacenter
	// reputation (0.65 → 0.65 × 0.25 = 0.16) needs a second signal.
	scorer, err := anomaly.NewComposite([]anomaly.Feature{
		{Name: featSignature, Weight: 2.2, Scale: 0.40},
		{Name: featReputation, Weight: 2.5, Scale: 0.35},
		{Name: featSpoofedBot, Weight: 2.3, Scale: 0.25},
		{Name: featRate, Weight: 1.3, Scale: 1.0},
		{Name: featChallenge, Weight: 0.9, Scale: 2.0},
		{Name: featRotation, Weight: 0.8, Scale: 1.0},
	})
	if err != nil {
		return nil, fmt.Errorf("sentinel: build scorer: %w", err)
	}
	d := &Detector{
		cfg:      cfg,
		checker:  uaparse.NewChecker(cfg.Era),
		scorer:   scorer,
		vec:      featIndex.NewVector(),
		contribs: make([]anomaly.Contribution, 0, featIndex.Len()),
		viols:    make([]uaparse.Violation, 0, 4),
	}
	if d.limit, err = ratelimit.NewLimit(cfg.SustainedRate, cfg.BurstSize); err != nil {
		return nil, fmt.Errorf("sentinel: rate limiter: %w", err)
	}
	if d.window, err = ratelimit.NewWindow(time.Minute, 6); err != nil {
		return nil, fmt.Errorf("sentinel: rate window: %w", err)
	}
	// fresh is what every new client starts from: nothing observed.
	fresh := ipState{limiter: ratelimit.NewGCRA(), window: ratelimit.NewSlidingWindow()}
	d.store, err = sessions.NewStore(sessions.Config[ipState]{
		IdleTimeout: cfg.IdleTimeout,
		Init:        func(st *ipState, _ time.Time) { *st = fresh },
		Snapshot:    d.snapshotIPState,
		Restore:     d.restoreIPState,
	})
	if err != nil {
		return nil, fmt.Errorf("sentinel: build store: %w", err)
	}
	return d, nil
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "sentinel" }

// Reset implements detector.Detector.
func (d *Detector) Reset() {
	d.store.Reset()
}

// Inspect implements detector.Detector.
func (d *Detector) Inspect(req *detector.Request) detector.Verdict {
	var v detector.Verdict
	d.InspectInto(req, &v)
	return v
}

// InspectInto implements detector.Detector. It overwrites every field of
// *out and records reasons as interned feature-name constants, so the
// steady-state decision path performs no allocations.
func (d *Detector) InspectInto(req *detector.Request, out *detector.Verdict) {
	*out = detector.Verdict{}
	d.vecValid = false
	// Authenticated partner traffic is sanctioned automation.
	if !d.cfg.InspectAuthUsers && req.Entry.AuthUser != "" && req.Entry.AuthUser != "-" {
		return
	}

	now := req.Entry.Time
	st, _ := d.store.Touch(sessions.IPOnlyKey(req.IP), now)
	st.requests++
	st.uaSeen.Add(req.Entry.UserAgent)

	info := &req.Target
	if info.Kind == sitemodel.KindChallengeVerify && req.Entry.Method == "POST" {
		st.challengeSolved = true
		st.pagesNoSolve = 0
	}
	if info.Kind.IsPage() && !st.challengeSolved {
		st.pagesNoSolve++
	}

	// Verified benign automation: declared search bots from verified
	// ranges and declared monitors are whitelisted the way commercial
	// products whitelist them.
	if req.UA.Class == uaparse.ClassSearchBot && req.IPCat == iprep.SearchEngine {
		return
	}
	if req.UA.Class == uaparse.ClassMonitor {
		return
	}

	vec := d.vec
	for i := range vec {
		vec[i] = 0
	}

	// Signature / fingerprint consistency, weighted by severity: a
	// declared tool is near-definitive, a stale browser version merely
	// suspicious.
	d.viols = d.checker.AppendCheck(d.viols[:0], req.UA)
	if len(d.viols) > 0 {
		var severity float64
		for _, v := range d.viols {
			severity += violationSeverity(v)
		}
		vec[idxSignature] = severity
	}
	// A declared search bot outside verified ranges is a spoof.
	if req.UA.Class == uaparse.ClassSearchBot && req.IPCat != iprep.SearchEngine {
		vec[idxSpoofedBot] = 1
	}
	// Reputation prior.
	if s := req.IPCat.Suspicion(); s > 0 {
		vec[idxReputation] = s
	}
	// Rate conformance: count recent violations, decaying with the window.
	if !st.limiter.Allow(&d.limit, now) {
		st.violations++
		vec[idxRate] = 1 + float64(st.window.Observe(&d.window, now))/60
	} else {
		st.window.Observe(&d.window, now)
	}
	// Challenge flow: browser-claiming clients that keep fetching pages
	// without ever executing the challenge script.
	if req.UA.Class == uaparse.ClassBrowser || req.UA.Class == uaparse.ClassUnknown {
		if over := st.pagesNoSolve - d.cfg.ChallengeGracePages; over > 0 {
			vec[idxChallenge] = float64(over)
		}
	}
	// User-Agent rotation behind a single address.
	if over := st.uaSeen.Distinct() - d.cfg.RotationThreshold; over > 0 {
		vec[idxRotation] = float64(over)
	}

	d.vecValid = true
	score, contribs := d.scorer.ScoreVec(vec, d.contribs)
	out.Score = score
	if score >= d.cfg.AlertThreshold {
		out.Alert = true
		detector.Explain(&out.Reasons, contribs)
	}
}

// Sessions reports the number of live per-IP states (for diagnostics).
func (d *Detector) Sessions() int { return d.store.Len() }

// FeatureNames implements detector.Explainer: the feature vector's slot
// names, in order. The returned slice is immutable.
func (d *Detector) FeatureNames() []string { return featIndex.Names() }

// LastFeatures implements detector.Explainer: the vector behind the most
// recent InspectInto, aliasing the detector's reusable scratch. ok is
// false when that request short-circuited before scoring (authenticated
// partner, verified search bot, declared monitor).
func (d *Detector) LastFeatures() ([]float64, bool) { return d.vec, d.vecValid }

// EvictBefore implements detector.Evictable: it proactively drops per-IP
// state untouched since cutoff. Verdict-neutral whenever cutoff trails
// stream time by at least Config.IdleTimeout (the sessions.Store
// eviction-equivalence argument).
func (d *Detector) EvictBefore(cutoff time.Time) int {
	return d.store.EvictBefore(cutoff)
}

// IdleTimeout implements detector.Idler: Config.IdleTimeout, defaults
// applied, after which a silent client's state is gone.
func (d *Detector) IdleTimeout() time.Duration { return d.store.IdleTimeout() }

// violationSeverity grades fingerprint violations: declared automation is
// near-definitive; version staleness is only a contributing signal.
func violationSeverity(v uaparse.Violation) float64 {
	switch v {
	case uaparse.ViolationToolUA, uaparse.ViolationHeadless:
		return 3.0
	case uaparse.ViolationEmptyUA:
		return 2.5
	case uaparse.ViolationFutureVersion:
		return 2.0
	case uaparse.ViolationStaleVersion:
		// Canned kit strings are years stale; with the 0.45 squash knee a
		// lone stale version sits right at the alert threshold, which is
		// how commercial products treat long-dead browser versions.
		return 2.0
	case uaparse.ViolationMalformedMozilla:
		return 1.5
	case uaparse.ViolationNoOS:
		return 1.0
	case uaparse.ViolationSpoofedBot:
		return 2.0
	default:
		return 1.0
	}
}
