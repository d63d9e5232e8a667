package sentinel

import (
	"testing"
	"time"
	"unsafe"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/sitemodel"
)

var base = time.Date(2018, 3, 12, 10, 0, 0, 0, time.UTC)

const (
	cleanChrome = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36"
	staleChrome = "Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/41.0.2228.0 Safari/537.36"
)

// enricher derives the test requests the way the pipeline does: a Request
// is only valid as a detector input once enrichment has filled it.
var enricher = detector.NewEnricher(iprep.BuildFeed())

// mkReq builds an enriched request without the pipeline.
func mkReq(t *testing.T, seq uint64, ip, ua, path string, at time.Time) *detector.Request {
	t.Helper()
	if _, err := iprep.ParseIPv4(ip); err != nil {
		t.Fatal(err)
	}
	method := "GET"
	if path == sitemodel.ChallengeVerifyPath {
		method = "POST"
	}
	req := enricher.Enrich(logfmt.Entry{
		RemoteAddr: ip, Identity: "-", AuthUser: "-",
		Time: at, Method: method, Path: path, Proto: "HTTP/1.1",
		Status: 200, Bytes: 1000, Referer: "-", UserAgent: ua,
	})
	req.Seq = seq
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

func TestToolUAAlertsImmediately(t *testing.T) {
	d := newDet(t)
	// Residential address: the only signal is the declared tool.
	req := mkReq(t, 0, "10.0.0.9", "python-requests/2.18.4", "/api/price/1", base)
	v := d.Inspect(req)
	if !v.Alert {
		t.Fatalf("tool UA not alerted (score %g)", v.Score)
	}
	if v.Reasons.Len() == 0 || v.Reasons.At(0) != "ua-signature" {
		t.Errorf("reasons = %v, want ua-signature first", v.Reasons.Strings())
	}
}

func TestBlocklistedAddressAlertsImmediately(t *testing.T) {
	d := newDet(t)
	ip := iprep.FormatIPv4(iprep.KnownScraperRanges[0].Nth(5))
	req := mkReq(t, 0, ip, cleanChrome, "/product/3", base)
	v := d.Inspect(req)
	if !v.Alert {
		t.Fatalf("blocklisted source not alerted (score %g)", v.Score)
	}
	if v.Reasons.Len() == 0 || v.Reasons.At(0) != "ip-reputation" {
		t.Errorf("reasons = %v, want ip-reputation first", v.Reasons.Strings())
	}
}

func TestDatacenterAloneDoesNotAlert(t *testing.T) {
	d := newDet(t)
	ip := iprep.FormatIPv4(iprep.DatacenterRanges[0].Nth(5))
	// Clean browser claim from a datacenter: grey, not convicted on the
	// first request.
	req := mkReq(t, 0, ip, cleanChrome, "/product/3", base)
	if v := d.Inspect(req); v.Alert {
		t.Fatalf("datacenter reputation alone alerted (score %g)", v.Score)
	}
}

func TestSpoofedSearchBotAlerts(t *testing.T) {
	d := newDet(t)
	googlebot := "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)"
	// Googlebot claim from residential space: spoof.
	v := d.Inspect(mkReq(t, 0, "10.0.0.9", googlebot, "/", base))
	if !v.Alert {
		t.Fatalf("spoofed search bot not alerted (score %g)", v.Score)
	}

	// The same claim from a verified range is whitelisted.
	d2 := newDet(t)
	verified := iprep.FormatIPv4(iprep.SearchEngineRanges[0].Nth(9))
	v2 := d2.Inspect(mkReq(t, 0, verified, googlebot, "/", base))
	if v2.Alert || v2.Score != 0 {
		t.Errorf("verified search bot scored %g", v2.Score)
	}
}

func TestMonitorWhitelisted(t *testing.T) {
	d := newDet(t)
	v := d.Inspect(mkReq(t, 0, "10.112.0.9", "Pingdom.com_bot_version_1.4_(http://www.pingdom.com/)", "/health", base))
	if v.Alert {
		t.Error("declared monitor alerted")
	}
}

func TestAuthenticatedTrafficSkipped(t *testing.T) {
	d := newDet(t)
	req := mkReq(t, 0, "10.112.0.9", "Java/1.8.0_151", "/api/price/1", base)
	req.Entry.AuthUser = "ota-partner-7"
	if v := d.Inspect(req); v.Alert || v.Score != 0 {
		t.Errorf("authenticated partner scored %g", v.Score)
	}

	// With InspectAuthUsers the same request is judged (and convicted:
	// tool UA).
	d2, err := New(Config{InspectAuthUsers: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := d2.Inspect(req); !v.Alert {
		t.Error("InspectAuthUsers did not inspect authenticated traffic")
	}
}

func TestChallengeFlowSuppressesAndAccumulates(t *testing.T) {
	d := newDet(t)
	now := base

	// A browser that never executes the challenge accumulates suspicion
	// with every page; one stale-version signal pushes it over.
	var alerted bool
	for i := 0; i < 12; i++ {
		now = now.Add(3 * time.Second)
		v := d.Inspect(mkReq(t, uint64(i), "10.0.3.3", staleChrome, sitemodel.ProductPath(i), now))
		if v.Alert {
			alerted = true
		}
	}
	if !alerted {
		t.Error("stale browser that ignores the challenge never alerted")
	}

	// The same behaviour with a solved challenge and a clean UA stays
	// quiet.
	d2 := newDet(t)
	now = base
	d2.Inspect(mkReq(t, 0, "10.0.4.4", cleanChrome, sitemodel.HomePath, now))
	d2.Inspect(mkReq(t, 1, "10.0.4.4", cleanChrome, sitemodel.ChallengeVerifyPath, now.Add(time.Second)))
	for i := 0; i < 12; i++ {
		now = now.Add(5 * time.Second)
		v := d2.Inspect(mkReq(t, uint64(i+2), "10.0.4.4", cleanChrome, sitemodel.ProductPath(i), now))
		if v.Alert {
			t.Fatalf("clean challenged browser alerted at page %d (score %g, reasons %v)", i, v.Score, v.Reasons.Strings())
		}
	}
}

func TestRateViolationsRaiseScore(t *testing.T) {
	d := newDet(t)
	now := base
	var quietScore, floodScore float64
	// Gentle pace first.
	for i := 0; i < 10; i++ {
		now = now.Add(2 * time.Second)
		v := d.Inspect(mkReq(t, uint64(i), "10.0.5.5", cleanChrome, sitemodel.ProductPath(i), now))
		quietScore = v.Score
	}
	// Then a flood at 10 req/s.
	for i := 0; i < 300; i++ {
		now = now.Add(100 * time.Millisecond)
		v := d.Inspect(mkReq(t, uint64(i+10), "10.0.5.5", cleanChrome, sitemodel.ProductPath(i), now))
		floodScore = v.Score
	}
	if floodScore <= quietScore {
		t.Errorf("flood score %g not above quiet score %g", floodScore, quietScore)
	}
}

func TestUARotationSignal(t *testing.T) {
	d := newDet(t)
	now := base
	uas := []string{
		cleanChrome,
		"Mozilla/5.0 (Windows NT 10.0; Win64; x64; rv:58.0) Gecko/20100101 Firefox/58.0",
		"Mozilla/5.0 (Macintosh; Intel Mac OS X 10_13_3) AppleWebKit/604.5.6 (KHTML, like Gecko) Version/11.0.3 Safari/604.5.6",
	}
	var fewUAScore float64
	for i := 0; i < 30; i++ {
		now = now.Add(400 * time.Millisecond)
		v := d.Inspect(mkReq(t, uint64(i), "10.96.0.7", uas[i%3], sitemodel.ProductPath(i), now))
		fewUAScore = v.Score
	}
	// Now a gateway presenting 30 distinct UAs.
	d2 := newDet(t)
	now = base
	var manyUAScore float64
	for i := 0; i < 30; i++ {
		now = now.Add(400 * time.Millisecond)
		ua := cleanChrome + " build/" + string(rune('A'+i))
		v := d2.Inspect(mkReq(t, uint64(i), "10.96.0.7", ua, sitemodel.ProductPath(i), now))
		manyUAScore = v.Score
	}
	if manyUAScore <= fewUAScore {
		t.Errorf("rotation score %g not above stable-UA score %g", manyUAScore, fewUAScore)
	}
}

func TestResetClearsState(t *testing.T) {
	d := newDet(t)
	now := base
	for i := 0; i < 200; i++ {
		now = now.Add(50 * time.Millisecond)
		d.Inspect(mkReq(t, uint64(i), "10.0.6.6", staleChrome, sitemodel.ProductPath(i), now))
	}
	if d.Sessions() == 0 {
		t.Fatal("expected live client state")
	}
	d.Reset()
	if d.Sessions() != 0 {
		t.Error("Reset left client state")
	}
	// Post-reset, the first request scores like a fresh detector.
	v := d.Inspect(mkReq(t, 0, "10.0.0.1", cleanChrome, "/", base))
	if v.Alert {
		t.Error("fresh state alerted a clean first request")
	}
}

func TestScoreThresholdConsistency(t *testing.T) {
	// Alert is exactly Score >= threshold: verify via a config with a
	// custom threshold.
	d, err := New(Config{AlertThreshold: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	v := d.Inspect(mkReq(t, 0, "10.0.0.9", "python-requests/2.18.4", "/api/price/1", base))
	if v.Alert {
		t.Error("score below 0.99 threshold must not alert")
	}
	if v.Score <= 0 {
		t.Error("score should still be reported")
	}
}

// A record holds its client's state and no copy of the detector's
// parameters: the limiter, window and decay parameters are one value on
// the detector, so an address costs its counters and stamps only.
func TestRecordHoldsStateOnly(t *testing.T) {
	const ceiling = 160
	size := unsafe.Sizeof(ipState{})
	t.Logf("ipState is %d B (ceiling %d B)", size, ceiling)
	if size > ceiling {
		t.Errorf("ipState is %d B, ceiling %d B", size, ceiling)
	}
}

func BenchmarkInspect(b *testing.B) {
	d, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	req := enricher.Enrich(logfmt.Entry{
		RemoteAddr: "172.16.0.9", Time: base,
		Method: "GET", Path: "/api/price/42", Proto: "HTTP/1.1",
		Status: 200, Bytes: 400, Referer: "-",
		UserAgent: "python-requests/2.18.4",
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req.Entry.Time = req.Entry.Time.Add(time.Second)
		d.Inspect(&req)
	}
}
