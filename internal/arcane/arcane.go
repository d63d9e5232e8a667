// Package arcane implements a behavioural, in-house-style scraping detector
// playing the role of the Amadeus tool of the same name in the DSN 2018
// paper. Where the commercial-style detector (internal/sentinel) judges
// requests by what the client *claims to be* — signatures, reputation,
// challenge tokens — this detector judges sessions by what the client
// *does*: inter-arrival regularity, catalogue coverage, sequential ID
// enumeration, pagination sweeps, asset starvation, referer discipline and
// robots.txt violations, composed into a streaming anomaly score.
//
// It needs a handful of requests per session to accumulate behavioural
// evidence (the warm-up), so it is strong against clean-fingerprint
// automation that the signature detector misses, and weak in exactly the
// places the signature detector is strong — the structural source of the
// alerting diversity the paper measures.
package arcane

import (
	"fmt"
	"time"

	"divscrape/internal/anomaly"
	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/sessions"
	"divscrape/internal/sitemodel"
	"divscrape/internal/stats"
	"divscrape/internal/uaparse"
)

// Feature names used in verdict explanations.
const (
	featRegularity  = "timing-regularity"
	featRate        = "session-rate"
	featVolume      = "session-volume"
	featEnumeration = "id-enumeration"
	featCoverage    = "catalogue-coverage"
	featPagination  = "pagination-sweep"
	featNoAssets    = "asset-starvation"
	featNoReferer   = "missing-referers"
	featRobots      = "robots-violations"
	featNotFound    = "not-found-probing"
)

// featIndex fixes the slot layout of the flat feature vector reused across
// requests; the composite scorer is declared in the same order, so slot i
// here is feature i there.
var featIndex = detector.NewFeatureIndex(
	featRegularity, featRate, featVolume, featEnumeration, featCoverage,
	featPagination, featNoAssets, featNoReferer, featRobots, featNotFound,
)

// Vector slots, resolved once at init.
var (
	idxRegularity  = featIndex.Index(featRegularity)
	idxRate        = featIndex.Index(featRate)
	idxVolume      = featIndex.Index(featVolume)
	idxEnumeration = featIndex.Index(featEnumeration)
	idxCoverage    = featIndex.Index(featCoverage)
	idxPagination  = featIndex.Index(featPagination)
	idxNoAssets    = featIndex.Index(featNoAssets)
	idxNoReferer   = featIndex.Index(featNoReferer)
	idxRobots      = featIndex.Index(featRobots)
	idxNotFound    = featIndex.Index(featNotFound)
)

// Config tunes the detector. Zero values select the documented defaults.
type Config struct {
	// AlertThreshold is the composite score above which a request alerts.
	// Default 0.30.
	AlertThreshold float64
	// WarmupRequests is the number of requests a session must accumulate
	// before the detector will score it; behavioural evidence below this
	// is considered noise. Default 6.
	WarmupRequests int
	// IdleTimeout ends a session after this much inactivity. Default 30m
	// (the web-analytics convention).
	IdleTimeout time.Duration
	// RateKnee is the sustained per-session request rate (req/s) at which
	// the rate feature reaches half strength. Default 0.9.
	RateKnee float64
	// CoverageKnee is the distinct-product count at half strength; humans
	// rarely view more than a couple of dozen products per session.
	// Default 60.
	CoverageKnee float64
	// VolumeKnee is the session request count at half strength.
	// Default 400.
	VolumeKnee float64
	// RegularityCV is the inter-arrival coefficient of variation below
	// which timing counts as machine-regular. Default 0.35.
	RegularityCV float64
	// InspectAuthUsers, when true, also inspects authenticated traffic.
	InspectAuthUsers bool
}

// DefaultConfig returns the tuned defaults used by the evaluation.
func DefaultConfig() Config {
	return Config{
		AlertThreshold: 0.30,
		WarmupRequests: 6,
		IdleTimeout:    30 * time.Minute,
		RateKnee:       0.9,
		CoverageKnee:   60,
		VolumeKnee:     400,
		RegularityCV:   0.35,
	}
}

func (c *Config) applyDefaults() {
	d := DefaultConfig()
	if c.AlertThreshold <= 0 {
		c.AlertThreshold = d.AlertThreshold
	}
	if c.WarmupRequests <= 0 {
		c.WarmupRequests = d.WarmupRequests
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = d.IdleTimeout
	}
	if c.RateKnee <= 0 {
		c.RateKnee = d.RateKnee
	}
	if c.CoverageKnee <= 0 {
		c.CoverageKnee = d.CoverageKnee
	}
	if c.VolumeKnee <= 0 {
		c.VolumeKnee = d.VolumeKnee
	}
	if c.RegularityCV <= 0 {
		c.RegularityCV = d.RegularityCV
	}
}

// session is the per-(IP, UA) behavioural memory.
type session struct {
	count           uint64
	pages           uint64
	assets          uint64
	apiCalls        uint64
	notFound        uint64
	robotsViol      uint64
	refererMiss     uint64
	refererEligible uint64
	products        stats.IDSet
	lastProduct     int
	seqRuns         uint64 // consecutive-ID product/price accesses
	lastCategory    int
	lastPage        int
	pageRuns        uint64 // consecutive pagination steps
	// lastSec and lastNsec are the last request's time as time.Unix takes
	// it back: a time.Time less its location and monotonic reading.
	lastSec      int64
	lastNsec     int32
	interarrival stats.Welford
	rate         stats.DecayRate
	claims       uaparse.Class
}

// initSession makes a zero record a session nothing has been observed in.
func initSession(st *session, _ time.Time) {
	st.lastProduct, st.lastCategory, st.lastPage = -1, -1, -1
	st.rate = stats.NewDecayRate()
}

// Detector is the behavioural detector. Not safe for concurrent use.
type Detector struct {
	cfg    Config
	scorer *anomaly.Composite
	store  *sessions.Store[session]
	// rateHalfLife is every session's rate estimator's parameter.
	rateHalfLife stats.HalfLife

	// Per-request scratch, reused to keep Inspect allocation-free.
	vec      []float64
	contribs []anomaly.Contribution
	// vecValid marks vec as holding the last request's features; requests
	// short-circuited before scoring (auth users, verified crawlers,
	// warmup) leave it false so the provenance plane never snapshots a
	// stale vector.
	vecValid bool
}

var (
	_ detector.Detector  = (*Detector)(nil)
	_ detector.Explainer = (*Detector)(nil)
)

// New builds a detector with cfg (zero fields take defaults).
func New(cfg Config) (*Detector, error) {
	cfg.applyDefaults()
	scorer, err := anomaly.NewComposite([]anomaly.Feature{
		{Name: featRegularity, Weight: 2.5, Scale: 1.0},
		{Name: featRate, Weight: 2.0, Scale: 1.0},
		{Name: featVolume, Weight: 1.5, Scale: 1.0},
		{Name: featEnumeration, Weight: 3.0, Scale: 0.5},
		{Name: featCoverage, Weight: 2.5, Scale: 1.0},
		{Name: featPagination, Weight: 2.0, Scale: 0.6},
		{Name: featNoAssets, Weight: 1.5, Scale: 0.7},
		{Name: featNoReferer, Weight: 1.0, Scale: 0.8},
		{Name: featRobots, Weight: 2.0, Scale: 0.5},
		{Name: featNotFound, Weight: 1.5, Scale: 0.6},
	})
	if err != nil {
		return nil, fmt.Errorf("arcane: build scorer: %w", err)
	}
	d := &Detector{
		cfg:          cfg,
		scorer:       scorer,
		rateHalfLife: stats.NewHalfLife(2 * time.Minute),
		vec:          featIndex.NewVector(),
		contribs:     make([]anomaly.Contribution, 0, featIndex.Len()),
	}
	if d.store, err = newStore(cfg); err != nil {
		return nil, fmt.Errorf("arcane: build store: %w", err)
	}
	return d, nil
}

func newStore(cfg Config) (*sessions.Store[session], error) {
	return sessions.NewStore(sessions.Config[session]{
		IdleTimeout: cfg.IdleTimeout,
		Init:        initSession,
		Snapshot:    snapshotSession,
		Restore:     restoreSession,
	})
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "arcane" }

// Reset implements detector.Detector.
func (d *Detector) Reset() {
	d.store.Reset()
}

// Sessions reports the number of live sessions (for diagnostics).
func (d *Detector) Sessions() int { return d.store.Len() }

// FeatureNames implements detector.Explainer: the feature vector's slot
// names, in order. The returned slice is immutable.
func (d *Detector) FeatureNames() []string { return featIndex.Names() }

// LastFeatures implements detector.Explainer: the vector behind the most
// recent InspectInto, aliasing the detector's reusable scratch. ok is
// false when that request short-circuited before scoring.
func (d *Detector) LastFeatures() ([]float64, bool) { return d.vec, d.vecValid }

// EvictBefore implements detector.Evictable: it proactively drops
// sessions untouched since cutoff. Verdict-neutral whenever cutoff trails
// stream time by at least Config.IdleTimeout.
func (d *Detector) EvictBefore(cutoff time.Time) int {
	return d.store.EvictBefore(cutoff)
}

// IdleTimeout implements detector.Idler: Config.IdleTimeout, defaults
// applied, after which a silent session is gone.
func (d *Detector) IdleTimeout() time.Duration { return d.store.IdleTimeout() }

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
	if !d.cfg.InspectAuthUsers && req.Entry.AuthUser != "" && req.Entry.AuthUser != "-" {
		return
	}
	// Verified search-engine crawlers are whitelisted: the operator wants
	// to be indexed, so behavioural similarity to scraping is sanctioned.
	// (Spoofed crawler claims from unverified ranges are still inspected.)
	if req.UA.Class == uaparse.ClassSearchBot && req.IPCat == iprep.SearchEngine {
		return
	}

	now := req.Entry.Time
	st, fresh := d.store.Touch(req.SessionKey(), now)
	d.observe(st, req, now, fresh)

	if st.count < uint64(d.cfg.WarmupRequests) {
		return
	}

	d.fillFeatures(st, now)
	d.vecValid = true
	score, contribs := d.scorer.ScoreVec(d.vec, d.contribs)
	out.Score = score
	if score >= d.cfg.AlertThreshold {
		out.Alert = true
		detector.Explain(&out.Reasons, contribs)
	}
}

// observe folds one request into the session state.
func (d *Detector) observe(st *session, req *detector.Request, now time.Time, fresh bool) {
	if !fresh {
		if dt := now.Sub(time.Unix(st.lastSec, int64(st.lastNsec))).Seconds(); dt >= 0 {
			st.interarrival.Add(dt)
		}
	}
	st.lastSec, st.lastNsec = now.Unix(), int32(now.Nanosecond())
	st.count++
	st.rate.Observe(&d.rateHalfLife, now)
	st.claims = req.UA.Class

	info := &req.Target
	switch {
	case info.Kind == sitemodel.KindStatic:
		st.assets++
	case info.Kind.IsPage():
		st.pages++
	case info.Kind == sitemodel.KindPrice:
		st.apiCalls++
	}

	if req.Entry.Status == 404 {
		st.notFound++
	}
	if req.RobotsDisallowed {
		st.robotsViol++
	}
	// Referer discipline applies to in-site page navigation: browsers
	// carry a referer once they are past the landing page.
	if info.Kind.IsPage() && st.pages > 1 {
		st.refererEligible++
		if req.Entry.Referer == "" || req.Entry.Referer == "-" {
			st.refererMiss++
		}
	}
	// Sequential-ID enumeration across product pages and the price API.
	if id := info.ProductID; id >= 0 {
		st.products.Add(id)
		if st.lastProduct >= 0 && (id == st.lastProduct+1 || id == st.lastProduct+2) {
			st.seqRuns++
		}
		st.lastProduct = id
	}
	// Pagination sweeps: walking category pages in order.
	if info.Kind == sitemodel.KindCategory {
		if info.Category == st.lastCategory && info.Page == st.lastPage+1 {
			st.pageRuns++
		}
		st.lastCategory, st.lastPage = info.Category, info.Page
	}
}

// fillFeatures derives the flat feature vector from session state into the
// detector's reusable scratch vector.
func (d *Detector) fillFeatures(st *session, now time.Time) {
	vec := d.vec
	for i := range vec {
		vec[i] = 0
	}

	// Machine-regular timing: CV below the knee scores proportionally to
	// how far below it sits, but only once enough gaps are recorded.
	if st.interarrival.N() >= 5 {
		cv := st.interarrival.CV()
		if cv < d.cfg.RegularityCV {
			vec[idxRegularity] = (d.cfg.RegularityCV - cv) / d.cfg.RegularityCV * 2
		}
	}
	vec[idxRate] = st.rate.Rate(&d.rateHalfLife, now) / d.cfg.RateKnee
	vec[idxVolume] = float64(st.count) / d.cfg.VolumeKnee
	if contentReqs := st.pages + st.apiCalls; contentReqs > 0 {
		vec[idxEnumeration] = float64(st.seqRuns) / float64(contentReqs) * 2
		vec[idxNotFound] = float64(st.notFound) / float64(contentReqs) * 2
	}
	vec[idxCoverage] = float64(st.products.Len()) / d.cfg.CoverageKnee
	if st.pages > 0 {
		vec[idxPagination] = float64(st.pageRuns) / float64(st.pages) * 2
	}
	// Asset starvation only indicts clients claiming to be browsers:
	// fetching many pages but none of the assets a real browser would.
	if st.claims == uaparse.ClassBrowser && st.pages >= 5 {
		assetPerPage := float64(st.assets) / float64(st.pages)
		if assetPerPage < 0.5 {
			vec[idxNoAssets] = 1 - 2*assetPerPage
		}
	}
	if st.refererEligible >= 4 {
		missRatio := float64(st.refererMiss) / float64(st.refererEligible)
		if missRatio > 0.5 {
			vec[idxNoReferer] = (missRatio - 0.5) * 2
		}
	}
	if st.count > 0 {
		vec[idxRobots] = float64(st.robotsViol) / float64(st.count) * 1.5
	}
}
