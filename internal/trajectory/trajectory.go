package trajectory

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
	featSurprise = "markov-surprise"
	featTeleport = "unlinked-transitions"
	featMix      = "content-mix-skew"
	featEntropy  = "path-entropy-collapse"
	featSweep    = "single-visit-sweep"
)

// featIndex fixes the slot layout of the flat feature vector reused across
// requests; the composite scorer is declared in the same order, so slot i
// here is feature i there.
var featIndex = detector.NewFeatureIndex(
	featSurprise, featTeleport, featMix, featEntropy, featSweep,
)

// Vector slots, resolved once at init.
var (
	idxSurprise = featIndex.Index(featSurprise)
	idxTeleport = featIndex.Index(featTeleport)
	idxMix      = featIndex.Index(featMix)
	idxEntropy  = featIndex.Index(featEntropy)
	idxSweep    = featIndex.Index(featSweep)
)

// Config tunes the detector. Zero values select the documented defaults.
type Config struct {
	// Model is the trained benign navigation model. Nil selects the shared
	// DefaultModel(); sharded pipelines may pass one Model to every shard.
	Model *Model
	// AlertThreshold is the composite score above which a request alerts.
	// Default 0.55.
	AlertThreshold float64
	// WarmupRequests is the number of requests a session must accumulate
	// before the detector will score it; a trajectory needs length before
	// its shape means anything. Default 8.
	WarmupRequests int
	// IdleTimeout ends a session after this much inactivity. Default 30m
	// (the web-analytics convention).
	IdleTimeout time.Duration
	// MinTransitions is the transition count below which the chain-based
	// features (surprise, unlinked transitions) stay silent. Default 4.
	MinTransitions int
	// SurpriseKnee is the per-transition surprise excess over the benign
	// baseline, in bits, at which the surprise feature reaches full raw
	// strength. Default 2.0.
	SurpriseKnee float64
	// TeleportKnee is the fraction of transitions never observed in benign
	// training at which the unlinked-transitions feature reaches full raw
	// strength. Default 0.25.
	TeleportKnee float64
	// MixKnee is the L1 distance between the session's page/asset/API mix
	// and the benign mix (range 0..2) at full raw strength. Default 0.8.
	MixKnee float64
	// EntropyKnee is the session kind-entropy deficit below the benign
	// mean, in bits, at full raw strength. Default 1.2.
	EntropyKnee float64
	// SweepMinViews is the product/price view count required before the
	// single-visit sweep feature engages. Default 12.
	SweepMinViews int
	// InspectAuthUsers, when true, also inspects authenticated traffic.
	InspectAuthUsers bool
}

// DefaultConfig returns the tuned defaults used by the evaluation.
func DefaultConfig() Config {
	return Config{
		AlertThreshold: 0.55,
		WarmupRequests: 8,
		IdleTimeout:    30 * time.Minute,
		MinTransitions: 4,
		SurpriseKnee:   2.0,
		TeleportKnee:   0.25,
		MixKnee:        0.8,
		EntropyKnee:    1.2,
		SweepMinViews:  12,
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
	if c.MinTransitions <= 0 {
		c.MinTransitions = d.MinTransitions
	}
	if c.SurpriseKnee <= 0 {
		c.SurpriseKnee = d.SurpriseKnee
	}
	if c.TeleportKnee <= 0 {
		c.TeleportKnee = d.TeleportKnee
	}
	if c.MixKnee <= 0 {
		c.MixKnee = d.MixKnee
	}
	if c.EntropyKnee <= 0 {
		c.EntropyKnee = d.EntropyKnee
	}
	if c.SweepMinViews <= 0 {
		c.SweepMinViews = d.SweepMinViews
	}
}

// session is the per-(IP, UA) trajectory memory.
type session struct {
	count       uint64
	pages       uint64
	assets      uint64
	apiCalls    uint64
	transitions uint64
	teleports   uint64 // transitions the benign chain never observed
	surprise    float64
	prevKind    int8 // previous PageKind, -1 before the first request
	views       uint64
	products    stats.IDSet
	kinds       [sitemodel.KindCount]uint32
}

// Detector is the trajectory detector. Not safe for concurrent use.
type Detector struct {
	cfg    Config
	model  *Model
	scorer *anomaly.Composite
	store  *sessions.Store[session]

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

// New builds a detector with cfg (zero fields take defaults). When
// cfg.Model is nil the shared DefaultModel is trained on first use.
func New(cfg Config) (*Detector, error) {
	cfg.applyDefaults()
	if cfg.Model == nil {
		m, err := DefaultModel()
		if err != nil {
			return nil, fmt.Errorf("trajectory: default model: %w", err)
		}
		cfg.Model = m
	}
	if !cfg.Model.Trained() {
		return nil, fmt.Errorf("trajectory: model is untrained")
	}
	scorer, err := anomaly.NewComposite([]anomaly.Feature{
		{Name: featSurprise, Weight: 3.0, Scale: 1.0},
		{Name: featTeleport, Weight: 2.0, Scale: 0.6},
		{Name: featMix, Weight: 2.5, Scale: 1.0},
		{Name: featEntropy, Weight: 2.0, Scale: 1.0},
		{Name: featSweep, Weight: 1.0, Scale: 0.8},
	})
	if err != nil {
		return nil, fmt.Errorf("trajectory: build scorer: %w", err)
	}
	d := &Detector{
		cfg:      cfg,
		model:    cfg.Model,
		scorer:   scorer,
		vec:      featIndex.NewVector(),
		contribs: make([]anomaly.Contribution, 0, featIndex.Len()),
	}
	if d.store, err = newStore(cfg); err != nil {
		return nil, fmt.Errorf("trajectory: build store: %w", err)
	}
	return d, nil
}

func newStore(cfg Config) (*sessions.Store[session], error) {
	return sessions.NewStore(sessions.Config[session]{
		IdleTimeout: cfg.IdleTimeout,
		Init:        func(st *session, _ time.Time) { st.prevKind = -1 },
		Snapshot:    snapshotSession,
		Restore:     restoreSession,
	})
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "trajectory" }

// Reset implements detector.Detector.
func (d *Detector) Reset() {
	d.store.Reset()
}

// Sessions reports the number of live sessions (for diagnostics).
func (d *Detector) Sessions() int { return d.store.Len() }

// Model returns the benign navigation model the detector scores against.
func (d *Detector) Model() *Model { return d.model }

// FeatureNames implements detector.Explainer: the feature vector's slot
// names, in order. The returned slice is immutable.
func (d *Detector) FeatureNames() []string { return featIndex.Names() }

// LastFeatures implements detector.Explainer: the vector behind the most
// recent InspectInto, aliasing the detector's reusable scratch. ok is
// false when that request short-circuited before scoring.
func (d *Detector) LastFeatures() ([]float64, bool) { return d.vec, d.vecValid }

// EvictBefore implements detector.Evictable: it proactively drops
// sessions untouched since cutoff. Verdict-neutral whenever cutoff trails
// stream time by at least Config.IdleTimeout — no feature reads the
// clock, so eviction can only change verdicts by splitting a session,
// which the idle-timeout margin rules out.
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
	// Verified search-engine crawlers are whitelisted for the same reason
	// the behavioural detector whitelists them: sanctioned crawling is
	// navigationally bot-shaped by design. (Spoofed claims from unverified
	// ranges are still inspected.)
	if req.UA.Class == uaparse.ClassSearchBot && req.IPCat == iprep.SearchEngine {
		return
	}

	now := req.Entry.Time
	st, _ := d.store.Touch(req.SessionKey(), now)
	d.observe(st, req)

	if st.count < uint64(d.cfg.WarmupRequests) {
		return
	}

	d.fillFeatures(st)
	d.vecValid = true
	score, contribs := d.scorer.ScoreVec(d.vec, d.contribs)
	out.Score = score
	if score >= d.cfg.AlertThreshold {
		out.Alert = true
		detector.Explain(&out.Reasons, contribs)
	}
}

// observe folds one request into the session's trajectory. Deliberately
// clock-free: the walk's shape, not its speed, is this detector's signal
// (speed belongs to the behavioural detector).
func (d *Detector) observe(st *session, req *detector.Request) {
	info := &req.Target
	kind := info.Kind
	if st.prevKind >= 0 {
		prev := sitemodel.PageKind(st.prevKind)
		st.transitions++
		st.surprise += d.model.Surprise(prev, kind)
		if !d.model.Seen(prev, kind) {
			st.teleports++
		}
	}
	st.prevKind = int8(kind)
	st.count++
	st.kinds[kind]++
	switch {
	case kind == sitemodel.KindStatic:
		st.assets++
	case kind.IsPage():
		st.pages++
	case kind == sitemodel.KindPrice:
		st.apiCalls++
	}
	if id := info.ProductID; id >= 0 {
		st.views++
		st.products.Add(id)
	}
}

// fillFeatures derives the flat feature vector from session state into the
// detector's reusable scratch vector.
func (d *Detector) fillFeatures(st *session) {
	vec := d.vec
	for i := range vec {
		vec[i] = 0
	}

	// Chain features need a minimum walk length before mean surprise and
	// the unlinked fraction stabilise.
	if st.transitions >= uint64(d.cfg.MinTransitions) {
		perTrans := st.surprise / float64(st.transitions)
		if excess := perTrans - d.model.baselineSurprise; excess > 0 {
			vec[idxSurprise] = excess / d.cfg.SurpriseKnee
		}
		vec[idxTeleport] = float64(st.teleports) / float64(st.transitions) / d.cfg.TeleportKnee
	}

	// Content-class mix: L1 distance from the benign page/asset/API shares.
	if content := st.pages + st.assets + st.apiCalls; content > 0 {
		fc := float64(content)
		l1 := abs(float64(st.pages)/fc-d.model.mixPages) +
			abs(float64(st.assets)/fc-d.model.mixAssets) +
			abs(float64(st.apiCalls)/fc-d.model.mixAPI)
		vec[idxMix] = l1 / d.cfg.MixKnee
	}

	// One-sided entropy deficit: hammering one corner of the kind space.
	// (Above-baseline spread is fine — that is just broad browsing.)
	if deficit := d.model.baselineEntropy - kindEntropy(&st.kinds); deficit > 0 {
		vec[idxEntropy] = deficit / d.cfg.EntropyKnee
	}

	// Catalogue sweeps never revisit: distinct/total product views near 1
	// on a long view stream. Humans re-check items (zipf interest), so
	// their ratio sags. Deliberately modest weight — marathon bargain
	// hunters sweep too, a documented false-positive trade-off.
	if st.views >= uint64(d.cfg.SweepMinViews) {
		uniq := float64(st.products.Len()) / float64(st.views)
		if uniq > 0.85 {
			vec[idxSweep] = (uniq - 0.85) / 0.15
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
