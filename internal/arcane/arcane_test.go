package arcane

import (
	"strconv"
	"testing"
	"time"
	"unsafe"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/sitemodel"
)

var base = time.Date(2018, 3, 12, 10, 0, 0, 0, time.UTC)

const cleanChrome = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36"

// enricher derives the test requests the way the pipeline does: a Request
// is only valid as a detector input once enrichment has filled it.
var enricher = detector.NewEnricher(iprep.BuildFeed())

func mkReq(t *testing.T, ip, ua, path, referer string, status int, at time.Time) *detector.Request {
	t.Helper()
	if _, err := iprep.ParseIPv4(ip); err != nil {
		t.Fatal(err)
	}
	req := enricher.Enrich(logfmt.Entry{
		RemoteAddr: ip, Identity: "-", AuthUser: "-",
		Time: at, Method: "GET", Path: path, Proto: "HTTP/1.1",
		Status: status, Bytes: 1000, Referer: referer, UserAgent: ua,
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

func TestSequentialEnumerationCaughtAfterWarmup(t *testing.T) {
	d := newDet(t)
	now := base
	warmup := DefaultConfig().WarmupRequests
	var firstAlert int = -1
	for i := 0; i < 60; i++ {
		now = now.Add(time.Second) // machine-steady 1/s
		v := d.Inspect(mkReq(t, "172.16.0.8", "python-requests/2.18.4",
			sitemodel.PricePath(i), "-", 200, now))
		if v.Alert && firstAlert < 0 {
			firstAlert = i
		}
		if i < warmup-1 && v.Alert {
			t.Fatalf("alerted during warm-up at request %d", i)
		}
	}
	if firstAlert < 0 {
		t.Fatal("sequential price enumeration never alerted")
	}
	if firstAlert > 3*warmup {
		t.Errorf("first alert at request %d, want shortly after warm-up (%d)", firstAlert, warmup)
	}
}

func TestHumanBrowsingStaysQuiet(t *testing.T) {
	d := newDet(t)
	now := base
	// A plausible human session: irregular think times, varied pages,
	// assets, referers.
	paths := []struct{ path, ref string }{
		{sitemodel.HomePath, "-"},
		{"/static/app.css", "-"},
		{"/static/app.js", "-"},
		{sitemodel.CategoryPath(3, 0), sitemodel.HomePath},
		{sitemodel.ProductPath(756), sitemodel.CategoryPath(3, 0)},
		{"/static/img/p756.jpg", "-"},
		{sitemodel.SearchPath("hotel deals"), sitemodel.ProductPath(756)},
		{sitemodel.ProductPath(310), "/search"},
		{"/static/img/p310.jpg", "-"},
		{sitemodel.CartPath, sitemodel.ProductPath(310)},
		{sitemodel.CheckoutPath, sitemodel.CartPath},
	}
	gaps := []time.Duration{
		0, 200 * time.Millisecond, 150 * time.Millisecond, 9 * time.Second,
		21 * time.Second, 300 * time.Millisecond, 5 * time.Second,
		47 * time.Second, 250 * time.Millisecond, 11 * time.Second, 80 * time.Second,
	}
	for i, p := range paths {
		now = now.Add(gaps[i])
		v := d.Inspect(mkReq(t, "10.0.0.5", cleanChrome, p.path, p.ref, 200, now))
		if v.Alert {
			t.Fatalf("human page %d (%s) alerted: score %g reasons %v", i, p.path, v.Score, v.Reasons.Strings())
		}
	}
}

func TestHeadlessCrawlCaught(t *testing.T) {
	d := newDet(t)
	now := base
	// Clean UA, referers, assets — but huge sequential coverage with
	// near-constant pacing: the behavioural signature.
	alerts := 0
	reqs := 0
	for page := 0; page < 4; page++ {
		listing := sitemodel.CategoryPath(0, page)
		now = now.Add(1200 * time.Millisecond)
		d.Inspect(mkReq(t, "172.22.0.5", cleanChrome, listing, "-", 200, now))
		reqs++
		for i := 0; i < 25; i++ {
			now = now.Add(1300 * time.Millisecond)
			pid := page*25 + i
			v := d.Inspect(mkReq(t, "172.22.0.5", cleanChrome,
				sitemodel.ProductPath(pid), listing, 200, now))
			reqs++
			if v.Alert {
				alerts++
			}
		}
	}
	if alerts == 0 {
		t.Fatal("headless catalogue sweep never alerted")
	}
	if alerts < reqs/3 {
		t.Errorf("only %d of %d sweep requests alerted", alerts, reqs)
	}
}

func TestVerifiedSearchBotWhitelisted(t *testing.T) {
	d := newDet(t)
	now := base
	googlebot := "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)"
	verified := iprep.FormatIPv4(iprep.SearchEngineRanges[0].Nth(3))
	for i := 0; i < 100; i++ {
		now = now.Add(5 * time.Second)
		v := d.Inspect(mkReq(t, verified, googlebot, sitemodel.ProductPath(i), "-", 200, now))
		if v.Alert {
			t.Fatalf("verified crawler alerted at request %d", i)
		}
	}

	// The same crawl from unverified space is inspected and eventually
	// convicted (sequential coverage).
	d2 := newDet(t)
	now = base
	alerted := false
	for i := 0; i < 300; i++ {
		now = now.Add(2 * time.Second)
		if v := d2.Inspect(mkReq(t, "10.0.0.77", googlebot, sitemodel.ProductPath(i), "-", 200, now)); v.Alert {
			alerted = true
			break
		}
	}
	if !alerted {
		t.Error("unverified crawler claim never inspected")
	}
}

func TestAuthenticatedSkipped(t *testing.T) {
	d := newDet(t)
	now := base
	for i := 0; i < 50; i++ {
		now = now.Add(time.Second)
		req := mkReq(t, "10.112.0.4", "Java/1.8.0_151", sitemodel.PricePath(i), "-", 200, now)
		req.Entry.AuthUser = "ota-partner-3"
		if v := d.Inspect(req); v.Alert || v.Score != 0 {
			t.Fatalf("authenticated request %d scored %g", i, v.Score)
		}
	}
}

func TestSessionsSplitByUA(t *testing.T) {
	d := newDet(t)
	now := base
	// Two agents behind one NAT address: each stream is its own session;
	// neither crosses the warm-up on its own.
	for i := 0; i < 4; i++ {
		now = now.Add(10 * time.Second)
		ua := cleanChrome
		if i%2 == 1 {
			ua = "Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0"
		}
		v := d.Inspect(mkReq(t, "10.0.0.8", ua, sitemodel.ProductPath(i), "-", 200, now))
		if v.Score != 0 {
			t.Fatalf("request %d scored %g before per-session warm-up", i, v.Score)
		}
	}
	if d.Sessions() != 2 {
		t.Errorf("Sessions = %d, want 2", d.Sessions())
	}
}

func TestIdleSessionRestartsWarmup(t *testing.T) {
	d := newDet(t)
	now := base
	for i := 0; i < 30; i++ {
		now = now.Add(time.Second)
		d.Inspect(mkReq(t, "172.16.0.8", "curl/7.58.0", sitemodel.PricePath(i), "-", 200, now))
	}
	// After an hour idle, the session expired; the first request of the
	// new session is back inside warm-up.
	now = now.Add(time.Hour)
	v := d.Inspect(mkReq(t, "172.16.0.8", "curl/7.58.0", sitemodel.PricePath(99), "-", 200, now))
	if v.Score != 0 {
		t.Errorf("request after idle expiry scored %g, want 0 (fresh warm-up)", v.Score)
	}
}

func TestNotFoundProbingSignal(t *testing.T) {
	run := func(status int) float64 {
		d := newDet(t)
		now := base
		var last float64
		for i := 0; i < 40; i++ {
			now = now.Add(2 * time.Second)
			// Random-ish product ids so the enumeration feature stays out
			// of the comparison; only the status differs between runs.
			pid := (i*37 + 11) % 9999
			v := d.Inspect(mkReq(t, "10.0.0.66", cleanChrome,
				sitemodel.ProductPath(pid), "-", status, now))
			last = v.Score
		}
		return last
	}
	if miss, hit := run(404), run(200); miss <= hit {
		t.Errorf("404-probing score %g not above 200 score %g", miss, hit)
	}
}

func TestResetClearsSessions(t *testing.T) {
	d := newDet(t)
	now := base
	for i := 0; i < 20; i++ {
		now = now.Add(time.Second)
		d.Inspect(mkReq(t, "172.16.0.8", "curl/7.58.0", sitemodel.PricePath(i), "-", 200, now))
	}
	if d.Sessions() == 0 {
		t.Fatal("expected live sessions")
	}
	d.Reset()
	if d.Sessions() != 0 {
		t.Error("Reset left sessions")
	}
}

// A record holds its client's state and no copy of the detector's
// parameters: the limiter, window and decay parameters are one value on
// the detector, so a session costs its counters and stamps only.
func TestRecordHoldsStateOnly(t *testing.T) {
	const ceiling = 264
	size := unsafe.Sizeof(session{})
	t.Logf("session is %d B (ceiling %d B)", size, ceiling)
	if size > ceiling {
		t.Errorf("session is %d B, ceiling %d B", size, ceiling)
	}
}

func BenchmarkInspect(b *testing.B) {
	d, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	now := base
	var req detector.Request
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Second)
		enricher.EnrichInto(&req, logfmt.Entry{
			RemoteAddr: "172.16.0.9", Time: now,
			Method: "GET", Path: "/api/price/" + strconv.Itoa(i%10000),
			Proto:  "HTTP/1.1",
			Status: 200, Bytes: 400, Referer: "-",
			UserAgent: "python-requests/2.18.4",
		})
		d.Inspect(&req)
	}
}
