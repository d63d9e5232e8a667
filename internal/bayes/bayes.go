// Package bayes implements a trainable Naive Bayes scraping detector in
// the style of the probabilistic web-robot detection literature the DSN
// 2018 paper cites (Stassopoulou & Dikaiakos, Computer Networks 2009):
// per-session features are discretised into bins and a Naive Bayes
// classifier, trained on labelled sessions, scores each request with the
// posterior probability that its session is automated.
//
// Within the reproduction it serves as a *third* diverse detector: where
// sentinel encodes vendor signatures and arcane encodes hand-tuned
// behavioural heuristics, this detector learns its decision surface from
// data — a genuinely different failure profile, which is what makes
// 2-out-of-3 adjudication interesting (the paper's "diverse detectors"
// theme taken one detector further).
package bayes

import (
	"fmt"
	"math"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/sessions"
	"divscrape/internal/sitemodel"
	"divscrape/internal/stats"
	"divscrape/internal/uaparse"
)

// Feature indices. Each feature is discretised into a small number of
// ordinal bins; bin edges live in featureBins.
const (
	featDeclaredAutomation = iota // UA class: browser/unknown vs declared bot/tool
	featInterarrivalCV            // timing regularity
	featRate                      // session request rate
	featAssetRatio                // asset fetches per page
	featRefererMissRatio          // missing-referer ratio on navigation
	featAPIRatio                  // price-API share of requests
	featErrorRatio                // 4xx share
	featCoverage                  // distinct products seen
	numFeatures
)

// numBins is the per-feature discretisation width.
const numBins = 4

// featureName labels features in explanations.
var featureNames = [numFeatures]string{
	"declared-automation",
	"interarrival-cv",
	"session-rate",
	"asset-ratio",
	"referer-miss",
	"api-ratio",
	"error-ratio",
	"coverage",
}

// Model holds the trained class-conditional bin counts. The zero value is
// untrained; build with Train or start from Priors and call Update.
type Model struct {
	// counts[class][feature][bin] with Laplace smoothing applied at
	// scoring time. class 0 = benign, 1 = scraper.
	counts [2][numFeatures][numBins]float64
	// classTotals[class] is the number of training observations.
	classTotals [2]float64
}

// Update folds one labelled observation (a session feature vector) into
// the model.
func (m *Model) Update(v FeatureVector, malicious bool) {
	class := 0
	if malicious {
		class = 1
	}
	for f := 0; f < numFeatures; f++ {
		m.counts[class][f][v[f]]++
	}
	m.classTotals[class]++
}

// Trained reports whether both classes have observations.
func (m *Model) Trained() bool {
	return m.classTotals[0] > 0 && m.classTotals[1] > 0
}

// Posterior returns P(scraper | v) under Naive Bayes with Laplace
// smoothing. Returns 0.5 when untrained.
func (m *Model) Posterior(v FeatureVector) float64 {
	if !m.Trained() {
		return 0.5
	}
	// Work in log space to avoid underflow across features.
	logOdds := math.Log(m.classTotals[1]) - math.Log(m.classTotals[0])
	for f := 0; f < numFeatures; f++ {
		likeScraper := (m.counts[1][f][v[f]] + 1) / (m.classTotals[1] + numBins)
		likeBenign := (m.counts[0][f][v[f]] + 1) / (m.classTotals[0] + numBins)
		logOdds += math.Log(likeScraper) - math.Log(likeBenign)
	}
	return 1 / (1 + math.Exp(-logOdds))
}

// Explain returns the per-feature log-odds contributions for a vector,
// most incriminating first (used for alert reasons).
func (m *Model) Explain(v FeatureVector, max int) []string {
	if !m.Trained() || max <= 0 {
		return nil
	}
	names, los := m.rankedContribs(v)
	if max > len(names) {
		max = len(names)
	}
	out := make([]string, 0, max)
	for i := 0; i < max; i++ {
		if los[i] <= 0 {
			break
		}
		out = append(out, names[i])
	}
	return out
}

// explainInto is Explain writing interned feature names into a
// fixed-capacity reason list: the decision path's allocation-free variant.
func (m *Model) explainInto(v FeatureVector, out *detector.ReasonList) {
	if !m.Trained() {
		return
	}
	names, los := m.rankedContribs(v)
	for i := 0; i < len(names) && i < detector.MaxReasons; i++ {
		if los[i] <= 0 {
			break
		}
		out.Append(names[i])
	}
}

// rankedContribs computes the per-feature log-odds and sorts the interned
// feature names by descending contribution, all in fixed-size arrays.
func (m *Model) rankedContribs(v FeatureVector) ([numFeatures]string, [numFeatures]float64) {
	var names [numFeatures]string
	var los [numFeatures]float64
	for f := 0; f < numFeatures; f++ {
		likeScraper := (m.counts[1][f][v[f]] + 1) / (m.classTotals[1] + numBins)
		likeBenign := (m.counts[0][f][v[f]] + 1) / (m.classTotals[0] + numBins)
		names[f] = featureNames[f]
		los[f] = math.Log(likeScraper / likeBenign)
	}
	// Selection sort on a tiny array, descending log-odds.
	for i := 0; i < numFeatures; i++ {
		best := i
		for j := i + 1; j < numFeatures; j++ {
			if los[j] > los[best] {
				best = j
			}
		}
		names[i], names[best] = names[best], names[i]
		los[i], los[best] = los[best], los[i]
	}
	return names, los
}

// FeatureVector is a discretised per-session observation.
type FeatureVector [numFeatures]uint8

// session accumulates the raw per-session feature signals.
type session struct {
	count       uint64
	pages       uint64
	assets      uint64
	apiCalls    uint64
	errors4xx   uint64
	refererMiss uint64
	refererElig uint64
	products    stats.IDSet
	// lastSec, lastNsec and firstSec, firstNsec are the last and the first
	// request's times as time.Unix takes them back: a time.Time less its
	// location and monotonic reading.
	lastSec, firstSec   int64
	lastNsec, firstNsec int32
	interarrival        stats.Welford
	declared            bool
}

// last and first are the session's last and first request times.
func (s *session) last() time.Time  { return time.Unix(s.lastSec, int64(s.lastNsec)) }
func (s *session) first() time.Time { return time.Unix(s.firstSec, int64(s.firstNsec)) }

// vector discretises the session's current state.
func (s *session) vector() FeatureVector {
	var v FeatureVector
	v[featDeclaredAutomation] = binBool(s.declared)
	v[featInterarrivalCV] = binThresholds(s.interarrival.CV(), 0.3, 0.7, 1.2)
	elapsed := s.last().Sub(s.first()).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(s.count) / elapsed
	}
	v[featRate] = binThresholds(rate, 0.2, 0.8, 2.5)
	assetRatio := 0.0
	if s.pages > 0 {
		assetRatio = float64(s.assets) / float64(s.pages)
	}
	v[featAssetRatio] = binThresholds(assetRatio, 0.2, 0.8, 2.0)
	missRatio := 0.0
	if s.refererElig > 0 {
		missRatio = float64(s.refererMiss) / float64(s.refererElig)
	}
	v[featRefererMissRatio] = binThresholds(missRatio, 0.25, 0.6, 0.9)
	apiRatio := float64(s.apiCalls) / float64(s.count)
	v[featAPIRatio] = binThresholds(apiRatio, 0.1, 0.4, 0.75)
	errRatio := float64(s.errors4xx) / float64(s.count)
	v[featErrorRatio] = binThresholds(errRatio, 0.01, 0.05, 0.2)
	v[featCoverage] = binThresholds(float64(s.products.Len()), 10, 40, 150)
	return v
}

func binBool(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// binThresholds maps x to 0..3 by three ascending thresholds.
func binThresholds(x, t1, t2, t3 float64) uint8 {
	switch {
	case x < t1:
		return 0
	case x < t2:
		return 1
	case x < t3:
		return 2
	default:
		return 3
	}
}

// Config tunes the detector.
type Config struct {
	// Model is the trained model; required for New.
	Model *Model
	// AlertThreshold is the posterior above which a request alerts.
	// Default 0.85 (posteriors polarise under Naive Bayes).
	AlertThreshold float64
	// WarmupRequests suppresses scoring for the first requests of a
	// session. Default 5.
	WarmupRequests int
	// IdleTimeout ends sessions. Default 30m.
	IdleTimeout time.Duration
}

// Detector scores requests with the trained model. Not safe for
// concurrent use.
type Detector struct {
	cfg   Config
	store *sessions.Store[session]
}

var _ detector.Detector = (*Detector)(nil)

// New builds a detector around a trained model.
func New(cfg Config) (*Detector, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("bayes: a model is required")
	}
	if !cfg.Model.Trained() {
		return nil, fmt.Errorf("bayes: model has no training observations for both classes")
	}
	if cfg.AlertThreshold <= 0 {
		cfg.AlertThreshold = 0.85
	}
	if cfg.WarmupRequests <= 0 {
		cfg.WarmupRequests = 5
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 30 * time.Minute
	}
	d := &Detector{cfg: cfg}
	var err error
	if d.store, err = newStore(cfg.IdleTimeout); err != nil {
		return nil, fmt.Errorf("bayes: build store: %w", err)
	}
	return d, nil
}

func newStore(idle time.Duration) (*sessions.Store[session], error) {
	return sessions.NewStore(sessions.Config[session]{
		IdleTimeout: idle,
		Init:        func(st *session, now time.Time) { st.firstSec, st.firstNsec = now.Unix(), int32(now.Nanosecond()) },
	})
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "bayes" }

// Reset implements detector.Detector.
func (d *Detector) Reset() {
	d.store.Reset()
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

// InspectInto implements detector.Detector; every field of *out is
// overwritten and reasons are interned feature-name constants.
func (d *Detector) InspectInto(req *detector.Request, out *detector.Verdict) {
	*out = detector.Verdict{}
	// Deployment-parity whitelists, matching the other two detectors:
	// credentialed integrations and verified search engines are
	// sanctioned automation (a raw Naive Bayes model correctly classifies
	// them as robots, which is the wrong question).
	if req.Entry.AuthUser != "" && req.Entry.AuthUser != "-" {
		return
	}
	if req.UA.Class == uaparse.ClassSearchBot && req.IPCat == iprep.SearchEngine {
		return
	}
	now := req.Entry.Time
	st, fresh := d.store.Touch(req.SessionKey(), now)
	observe(st, req, now, fresh)
	if st.count < uint64(d.cfg.WarmupRequests) {
		return
	}
	v := st.vector()
	out.Score = d.cfg.Model.Posterior(v)
	if out.Score >= d.cfg.AlertThreshold {
		out.Alert = true
		d.cfg.Model.explainInto(v, &out.Reasons)
	}
}

// observe folds one request into the session (shared by detection and
// training).
func observe(st *session, req *detector.Request, now time.Time, fresh bool) {
	if !fresh {
		if dt := now.Sub(st.last()).Seconds(); dt >= 0 {
			st.interarrival.Add(dt)
		}
	}
	st.lastSec, st.lastNsec = now.Unix(), int32(now.Nanosecond())
	st.count++
	st.declared = req.UA.IsAutomated() || req.UA.Class == uaparse.ClassEmpty

	info := &req.Target
	switch {
	case info.Kind == sitemodel.KindStatic:
		st.assets++
	case info.Kind.IsPage():
		st.pages++
		if st.pages > 1 {
			st.refererElig++
			if req.Entry.Referer == "" || req.Entry.Referer == "-" {
				st.refererMiss++
			}
		}
	case info.Kind == sitemodel.KindPrice:
		st.apiCalls++
	}
	if req.Entry.Status >= 400 && req.Entry.Status < 500 {
		st.errors4xx++
	}
	st.products.Add(info.ProductID)
}
