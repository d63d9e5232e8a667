package trajectory

import (
	"testing"
	"time"
	"unsafe"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/sitemodel"
	"divscrape/internal/workload"
)

var base = time.Date(2018, 3, 12, 10, 0, 0, 0, time.UTC)

const cleanChrome = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36"
const googlebot = "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)"

// enricher derives the test requests the way the pipeline does: a Request
// is only valid as a detector input once enrichment has filled it.
var enricher = detector.NewEnricher(iprep.BuildFeed())

func mkReq(t *testing.T, ip, ua, path string, at time.Time) *detector.Request {
	t.Helper()
	if _, err := iprep.ParseIPv4(ip); err != nil {
		t.Fatal(err)
	}
	req := enricher.Enrich(logfmt.Entry{
		RemoteAddr: ip, Identity: "-", AuthUser: "-",
		Time: at, Method: "GET", Path: path, Proto: "HTTP/1.1",
		Status: 200, Bytes: 1000, Referer: "-", UserAgent: ua,
	})
	return &req
}

func newDet(t *testing.T) *Detector {
	t.Helper()
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPriceEnumerationCaught: the navigationally loudest scraper shape — a
// pure price-API walk with no pages and no assets — must alert shortly
// after warm-up on trajectory evidence alone (the timing here is humanly
// irregular, so the behavioural detector's signals are not in play).
func TestPriceEnumerationCaught(t *testing.T) {
	d := newDet(t)
	now := base
	warmup := DefaultConfig().WarmupRequests
	gaps := []time.Duration{3 * time.Second, 11 * time.Second, 800 * time.Millisecond, 7 * time.Second}
	firstAlert := -1
	for i := 0; i < 40; i++ {
		now = now.Add(gaps[i%len(gaps)])
		v := d.Inspect(mkReq(t, "172.16.0.8", "python-requests/2.18.4", sitemodel.PricePath(100+i*3), now))
		if i < warmup-1 && v.Alert {
			t.Fatalf("alerted during warm-up at request %d", i)
		}
		if v.Alert && firstAlert < 0 {
			firstAlert = i
		}
	}
	if firstAlert < 0 {
		t.Fatal("price enumeration never alerted")
	}
	if firstAlert > 2*warmup {
		t.Errorf("first alert at request %d, want shortly after warm-up (%d)", firstAlert, warmup)
	}
}

// TestHumanBrowsingStaysQuiet: a benign-shaped walk — home, listings,
// products with asset fetches, search, cart — stays below threshold even
// past warm-up.
func TestHumanBrowsingStaysQuiet(t *testing.T) {
	d := newDet(t)
	now := base
	paths := []string{
		sitemodel.HomePath,
		"/static/app.css",
		"/static/app.js",
		sitemodel.CategoryPath(3, 0),
		sitemodel.ProductPath(756),
		"/static/img/p756.jpg",
		sitemodel.SearchPath("deals"),
		sitemodel.ProductPath(310),
		"/static/img/p310.jpg",
		sitemodel.ProductPath(756),
		sitemodel.CartPath,
		sitemodel.CheckoutPath,
	}
	for i, p := range paths {
		now = now.Add(time.Duration(2+i) * time.Second)
		v := d.Inspect(mkReq(t, "10.0.0.5", cleanChrome, p, now))
		if v.Alert {
			t.Fatalf("human step %d (%s) alerted: score %g reasons %v", i, p, v.Score, v.Reasons.Strings())
		}
	}
}

// TestShortCircuits: authenticated users and verified search crawlers are
// never scored; a crawler claim from an unverified IP is.
func TestShortCircuits(t *testing.T) {
	d := newDet(t)
	now := base

	auth := mkReq(t, "172.16.0.9", "partner-sdk/1.0", sitemodel.PricePath(1), now)
	auth.Entry.AuthUser = "partner42"
	for i := 0; i < 30; i++ {
		now = now.Add(time.Second)
		auth.Entry.Time = now
		if v := d.Inspect(auth); v.Alert || v.Score != 0 {
			t.Fatal("authenticated request was scored")
		}
	}
	if d.Sessions() != 0 {
		t.Fatalf("short-circuited traffic created %d sessions", d.Sessions())
	}

	for i := 0; i < 30; i++ {
		now = now.Add(time.Second)
		if v := d.Inspect(mkReq(t, "192.168.80.10", googlebot, sitemodel.ProductPath(i), now)); v.Alert {
			t.Fatal("verified search crawler alerted")
		}
	}
	if d.Sessions() != 0 {
		t.Fatalf("verified crawler created %d sessions", d.Sessions())
	}

	// The same claim from a datacenter range is inspected like anyone else.
	alerted := false
	for i := 0; i < 40; i++ {
		now = now.Add(time.Second)
		if v := d.Inspect(mkReq(t, "172.16.0.77", googlebot, sitemodel.PricePath(i), now)); v.Alert {
			alerted = true
		}
	}
	if !alerted {
		t.Error("spoofed crawler claim from unverified range never alerted")
	}
}

// TestExplainerSurface: feature names line up with the vector and
// LastFeatures tracks validity across scored and short-circuited requests.
func TestExplainerSurface(t *testing.T) {
	d := newDet(t)
	names := d.FeatureNames()
	if len(names) != featIndex.Len() {
		t.Fatalf("%d feature names, want %d", len(names), featIndex.Len())
	}
	if _, ok := d.LastFeatures(); ok {
		t.Fatal("LastFeatures valid before any request")
	}
	now := base
	for i := 0; i < 20; i++ {
		now = now.Add(time.Second)
		d.Inspect(mkReq(t, "172.16.0.8", "curl/7.58.0", sitemodel.PricePath(i), now))
	}
	vec, ok := d.LastFeatures()
	if !ok {
		t.Fatal("LastFeatures invalid after scored request")
	}
	if len(vec) != len(names) {
		t.Fatalf("vector length %d, want %d", len(vec), len(names))
	}
	auth := mkReq(t, "172.16.0.8", "curl/7.58.0", sitemodel.PricePath(99), now.Add(time.Second))
	auth.Entry.AuthUser = "ops"
	d.Inspect(auth)
	if _, ok := d.LastFeatures(); ok {
		t.Fatal("LastFeatures valid after short-circuited request")
	}
}

// TestEvictionNeutral: periodic EvictBefore at the idle-timeout margin
// never changes a verdict — the guarantee the pipeline's eviction cadence
// and httpguard's janitor rely on.
func TestEvictionNeutral(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{Seed: 23, Duration: 3 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	events, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	plain, evicted := newDet(t), newDet(t)
	enrA := detector.NewEnricher(iprep.BuildFeed())
	enrB := detector.NewEnricher(iprep.BuildFeed())
	idle := DefaultConfig().IdleTimeout
	for i := range events {
		var ra, rb detector.Request
		enrA.EnrichInto(&ra, events[i].Entry)
		enrB.EnrichInto(&rb, events[i].Entry)
		va := plain.Inspect(&ra)
		if i%500 == 499 {
			evicted.EvictBefore(events[i].Entry.Time.Add(-idle))
		}
		vb := evicted.Inspect(&rb)
		if va != vb {
			t.Fatalf("event %d: eviction changed verdict: %+v vs %+v", i, va, vb)
		}
	}
	if evicted.Sessions() >= plain.Sessions() && plain.Sessions() > 0 {
		t.Logf("note: eviction dropped no sessions (plain %d, evicted %d)", plain.Sessions(), evicted.Sessions())
	}
}

// TestDefaultModelShape sanity-checks the trained baselines: benign
// traffic is asset-heavy, its walks have real entropy, and a price→price
// self-loop is more surprising than the product→static step every human
// page view produces.
func TestDefaultModelShape(t *testing.T) {
	m, err := DefaultModel()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Trained() {
		t.Fatal("default model untrained")
	}
	pages, assets, api := m.mixPages, m.mixAssets, m.mixAPI
	if assets <= pages || assets <= api {
		t.Errorf("benign mix should be asset-heavy: pages=%.3f assets=%.3f api=%.3f", pages, assets, api)
	}
	if h := m.baselineEntropy; h < 1 {
		t.Errorf("benign session entropy %.2f bits, want >= 1", h)
	}
	if m.Surprise(sitemodel.KindPrice, sitemodel.KindPrice) <= m.Surprise(sitemodel.KindProduct, sitemodel.KindStatic) {
		t.Error("price->price self-loop should be more surprising than product->static")
	}
}

// A record holds its client's state and no copy of the detector's
// parameters: the navigation model and the scorer are the detector's, so a
// session costs its counters, its kind histogram and its product set only.
func TestRecordHoldsStateOnly(t *testing.T) {
	const ceiling = 224
	size := unsafe.Sizeof(session{})
	t.Logf("session is %d B (ceiling %d B)", size, ceiling)
	if size > ceiling {
		t.Errorf("session is %d B, ceiling %d B", size, ceiling)
	}
}
