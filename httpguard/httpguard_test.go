package httpguard

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
)

// fakeClock hands out strictly increasing instants.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2018, 3, 12, 10, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) tick(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})
}

func newGuard(t *testing.T, cfg Config) *Guard {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// do sends one synthetic request directly through the wrapped handler.
func do(t *testing.T, h http.Handler, ip, ua, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	req.RemoteAddr = ip + ":51234"
	req.Header.Set("User-Agent", ua)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

const toolUA = "python-requests/2.18.4"
const browserUA = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36"

// policyOf returns a pointer to p, for Config.Policy.
func policyOf(p mitigate.Policy) *mitigate.Policy { return &p }

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Policy: &mitigate.Policy{}}); err == nil {
		t.Error("invalid policy accepted")
	}
}

func TestObserveModeNeverInterferes(t *testing.T) {
	clock := newFakeClock()
	var commercial []detector.Verdict
	g := newGuard(t, Config{
		Now: func() time.Time { return clock.tick(100 * time.Millisecond) },
		OnVerdict: func(_ logfmt.Entry, v Verdicts) {
			commercial = append(commercial, v.At(0))
		},
	})
	h := g.Wrap(okHandler())
	for i := 0; i < 10; i++ {
		rec := do(t, h, "172.16.0.9", toolUA, "/api/price/"+strconv.Itoa(i))
		if rec.Code != http.StatusOK {
			t.Fatalf("observe mode altered response: %d", rec.Code)
		}
		if rec.Header().Get("X-Scrape-Verdict") != "" {
			t.Fatal("observe mode tagged a response")
		}
	}
	if len(commercial) != 10 {
		t.Fatalf("OnVerdict called %d times", len(commercial))
	}
	// A tool UA from a datacenter range must alert the commercial
	// detector.
	if !commercial[0].Alert {
		t.Error("commercial detector silent on tool UA")
	}
	total, alerted, blocked := g.Stats()
	if total != 10 || alerted != 10 || blocked != 0 {
		t.Errorf("stats = %d/%d/%d", total, alerted, blocked)
	}
}

func TestTagMode(t *testing.T) {
	clock := newFakeClock()
	g := newGuard(t, Config{
		Policy: policyOf(mitigate.Tag()),
		Now:    func() time.Time { return clock.tick(time.Second) },
	})
	h := g.Wrap(okHandler())

	rec := do(t, h, "172.16.0.9", toolUA, "/api/price/1")
	if rec.Code != http.StatusOK {
		t.Fatalf("tag mode blocked: %d", rec.Code)
	}
	if got := rec.Header().Get("X-Scrape-Verdict"); got != "commercial" {
		t.Errorf("verdict header = %q", got)
	}

	rec2 := do(t, h, "10.0.0.5", browserUA, "/")
	if rec2.Header().Get("X-Scrape-Verdict") != "" {
		t.Error("clean request tagged")
	}
}

func TestBlockMode(t *testing.T) {
	clock := newFakeClock()
	g := newGuard(t, Config{
		Policy: policyOf(mitigate.StaticBlock(false)),
		Now:    func() time.Time { return clock.tick(time.Second) },
	})
	h := g.Wrap(okHandler())

	rec := do(t, h, "172.16.0.9", toolUA, "/api/price/1")
	if rec.Code != http.StatusForbidden {
		t.Fatalf("block mode passed the scraper: %d", rec.Code)
	}
	if rec.Header().Get("X-Scrape-Verdict") != "blocked" {
		t.Error("blocked response not labelled")
	}
	// Humans keep flowing.
	rec2 := do(t, h, "10.0.0.5", browserUA, "/")
	if rec2.Code != http.StatusOK {
		t.Errorf("human blocked: %d", rec2.Code)
	}
	_, _, blocked := g.Stats()
	if blocked != 1 {
		t.Errorf("blocked counter = %d", blocked)
	}
}

func TestBlockOnConfirmedOnly(t *testing.T) {
	clock := newFakeClock()
	g := newGuard(t, Config{
		Policy: policyOf(mitigate.StaticBlock(true)),
		Now:    func() time.Time { return clock.tick(time.Second) },
	})
	h := g.Wrap(okHandler())

	// Early requests: only the commercial detector alerts (behavioural is
	// warming up) — with confirmation required, they pass tagged.
	rec := do(t, h, "172.16.0.9", toolUA, "/api/price/1")
	if rec.Code != http.StatusOK {
		t.Fatalf("unconfirmed single-tool alert blocked: %d", rec.Code)
	}
	if rec.Header().Get("X-Scrape-Verdict") != "commercial" {
		t.Errorf("verdict header = %q", rec.Header().Get("X-Scrape-Verdict"))
	}
	// Keep scraping; once the behavioural detector confirms, blocking
	// kicks in.
	var blockedAt int = -1
	for i := 2; i < 60; i++ {
		rec := do(t, h, "172.16.0.9", toolUA, "/api/price/"+strconv.Itoa(i))
		if rec.Code == http.StatusForbidden {
			blockedAt = i
			break
		}
	}
	if blockedAt < 0 {
		t.Fatal("sustained scraping never confirmed and blocked")
	}
}

func TestResponseStatusRecorded(t *testing.T) {
	clock := newFakeClock()
	var statuses []int
	g := newGuard(t, Config{
		Now: func() time.Time { return clock.tick(time.Second) },
		OnVerdict: func(e logfmt.Entry, _ Verdicts) {
			statuses = append(statuses, e.Status)
		},
	})
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	}))
	do(t, h, "10.0.0.5", browserUA, "/missing")
	if len(statuses) != 1 || statuses[0] != http.StatusNotFound {
		t.Errorf("recorded statuses = %v, want [404]", statuses)
	}
}

func TestBasicAuthBecomesAuthUser(t *testing.T) {
	clock := newFakeClock()
	var entries []logfmt.Entry
	g := newGuard(t, Config{
		Now: func() time.Time { return clock.tick(time.Second) },
		OnVerdict: func(e logfmt.Entry, _ Verdicts) {
			entries = append(entries, e)
		},
	})
	h := g.Wrap(okHandler())
	req := httptest.NewRequest("GET", "/api/price/1", nil)
	req.RemoteAddr = "10.112.0.4:4000"
	req.Header.Set("User-Agent", "Java/1.8.0_151")
	req.SetBasicAuth("ota-partner-7", "secret")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if len(entries) != 1 || entries[0].AuthUser != "ota-partner-7" {
		t.Errorf("auth user = %+v", entries)
	}
}

func TestGuardAgainstLiveServer(t *testing.T) {
	clock := newFakeClock()
	g := newGuard(t, Config{
		Policy: policyOf(mitigate.StaticBlock(false)),
		Now:    func() time.Time { return clock.tick(500 * time.Millisecond) },
	})
	srv := httptest.NewServer(g.Wrap(okHandler()))
	defer srv.Close()

	client := srv.Client()
	req, err := http.NewRequest("GET", srv.URL+"/api/price/1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("User-Agent", toolUA)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Loopback (127.0.0.1) is outside the synthetic reputation plan, so
	// the verdict rides on the UA signature alone — which suffices.
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("live scraper request got %d", resp.StatusCode)
	}
}

func TestConcurrentRequestsSafe(t *testing.T) {
	clock := newFakeClock()
	g := newGuard(t, Config{
		Now: func() time.Time { return clock.tick(10 * time.Millisecond) },
	})
	h := g.Wrap(okHandler())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ip := fmt.Sprintf("10.0.%d.%d", w, i%8)
				req := httptest.NewRequest("GET", "/product/"+strconv.Itoa(i), nil)
				req.RemoteAddr = ip + ":1000"
				req.Header.Set("User-Agent", browserUA)
				h.ServeHTTP(httptest.NewRecorder(), req)
			}
		}(w)
	}
	wg.Wait()
	total, _, _ := g.Stats()
	if total != 400 {
		t.Errorf("total = %d, want 400", total)
	}
}
