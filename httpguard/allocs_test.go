package httpguard

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
	"divscrape/internal/sitemodel"
)

// answerCase is one answer the graduated guard gives, to a client behind
// a trusted proxy: the policy's rungs are placed so that the client sits
// on the case's rung for as long as it keeps sending the same request.
type answerCase struct {
	name         string
	policy       func(p *mitigate.Policy)
	failClosed   bool // every request is shed and refused as degraded
	method, path string
	ua           string
	action       mitigate.Action
	tagged       bool
	status       int
	// reference writes the response the guard gave before its headers
	// were shared values: Header().Set and http.Error; next is the
	// application.
	reference func(w http.ResponseWriter, r *http.Request, next http.Handler)
}

// unreachable puts the rungs from the first named one up out of a
// client's reach.
func unreachable(from mitigate.Action) func(*mitigate.Policy) {
	return func(p *mitigate.Policy) {
		p.TarpitThreshold, p.ChallengeThreshold, p.BlockThreshold = 0.05, 0.1, 0.2
		p.ScoreCap, p.ChallengeBudget = 1e6, 1<<30
		switch from {
		case mitigate.Tarpit:
			p.TarpitThreshold, p.ChallengeThreshold, p.BlockThreshold = 1e3, 2e3, 3e3
		case mitigate.Challenge:
			p.ChallengeThreshold, p.BlockThreshold = 2e3, 3e3
		case mitigate.Block:
			p.BlockThreshold = 3e3
		}
	}
}

var answerCases = []answerCase{
	{name: "allow", policy: unreachable(mitigate.Tarpit), method: "GET", path: "/product/17", ua: browserUA, action: mitigate.Allow, status: http.StatusOK,
		reference: func(w http.ResponseWriter, r *http.Request, next http.Handler) { next.ServeHTTP(w, r) }},
	{name: "tagged allow", policy: unreachable(mitigate.Tarpit), method: "GET", path: "/product/17", ua: toolUA,
		action: mitigate.Allow, tagged: true, status: http.StatusOK,
		reference: func(w http.ResponseWriter, r *http.Request, next http.Handler) {
			w.Header().Set("X-Scrape-Verdict", "commercial")
			next.ServeHTTP(w, r)
		}},
	{name: "tarpit", policy: unreachable(mitigate.Challenge), method: "GET", path: "/product/17", ua: toolUA,
		action: mitigate.Tarpit, tagged: true, status: http.StatusOK,
		reference: func(w http.ResponseWriter, r *http.Request, next http.Handler) {
			w.Header().Set("X-Scrape-Verdict", "commercial")
			next.ServeHTTP(w, r)
		}},
	{name: "challenge", policy: unreachable(mitigate.Block), method: "GET", path: "/product/17", ua: toolUA,
		action: mitigate.Challenge, tagged: true, status: http.StatusServiceUnavailable,
		reference: func(w http.ResponseWriter, r *http.Request, next http.Handler) {
			w.Header().Set("X-Scrape-Verdict", "challenge")
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(challengeBody))
		}},
	{name: "block", method: "GET", path: "/product/17", ua: toolUA, action: mitigate.Block, tagged: true, status: http.StatusForbidden,
		reference: func(w http.ResponseWriter, r *http.Request, next http.Handler) {
			w.Header().Set("X-Scrape-Verdict", "blocked")
			http.Error(w, "automated scraping detected", http.StatusForbidden)
		}},
	{name: "challenge script", method: "GET", path: sitemodel.ChallengeScriptPath, ua: browserUA, action: mitigate.Allow, status: http.StatusOK,
		reference: func(w http.ResponseWriter, r *http.Request, next http.Handler) {
			w.Header().Set("Content-Type", "text/javascript; charset=utf-8")
			w.Write([]byte(challengeScript))
		}},
	{name: "verify beacon", method: "POST", path: sitemodel.ChallengeVerifyPath, ua: browserUA, action: mitigate.Allow, status: http.StatusNoContent,
		reference: func(w http.ResponseWriter, r *http.Request, next http.Handler) {
			w.WriteHeader(http.StatusNoContent)
		}},
	{name: "fail-closed degraded", failClosed: true, method: "GET", path: "/product/17", ua: browserUA,
		action: mitigate.Allow, status: http.StatusServiceUnavailable,
		reference: func(w http.ResponseWriter, r *http.Request, next http.Handler) {
			w.Header().Set("X-Scrape-Verdict", "degraded")
			w.Header().Set("Retry-After", "1")
			http.Error(w, "detection degraded, retry shortly", http.StatusServiceUnavailable)
		}},
}

// answerGuard builds c's guard in front of next, behind a trusted proxy,
// and returns its handler, the request that reaches c's rung, a serve
// function that advances the clock a second per request, and the last
// decision the guard took. Sixty-four requests have warmed it: caches
// filled, sessions allocated, the client on its rung.
func answerGuard(t *testing.T, c answerCase, next http.Handler) (h http.Handler, r *http.Request, serve func(w http.ResponseWriter), last *mitigate.Decision) {
	t.Helper()
	p := mitigate.Graduated()
	if c.policy != nil {
		c.policy(&p)
	}
	var now time.Time
	base := time.Date(2018, 3, 11, 6, 0, 0, 0, time.UTC)
	last = new(mitigate.Decision)
	cfg := Config{
		Policy:         &p,
		TrustedProxies: []string{"10.0.0.0/8"},
		Now:            func() time.Time { return now },
		Sleep:          func(time.Duration) {},
		OnDecision:     func(_ logfmt.Entry, _ Verdicts, d mitigate.Decision) { *last = d },
	}
	if c.failClosed {
		cfg.Shards, cfg.MaxInFlight, cfg.Degraded = 1, 1, FailClosed
	}
	g := newGuard(t, cfg)
	if c.failClosed {
		g.shards[0].inflight.Store(1) // the gate is full: every request sheds
	}
	h = g.Wrap(next)
	r = httptest.NewRequest(c.method, c.path, nil)
	r.RemoteAddr = "10.0.0.1:443"
	r.Header.Set("X-Forwarded-For", "203.0.113.9, 10.0.0.2")
	r.Header.Set("User-Agent", c.ua)
	i := 0
	serve = func(w http.ResponseWriter) {
		now = base.Add(time.Duration(i) * time.Second)
		i++
		h.ServeHTTP(w, r)
	}
	w := &nopResponseWriter{header: make(http.Header)}
	for j := 0; j < 64; j++ {
		w.reset()
		serve(w)
	}
	if last.Action != c.action || last.Tagged != c.tagged || w.status != c.status && !(w.status == 0 && c.status == http.StatusOK) {
		t.Fatalf("%s: warmed client gets %v (tagged %v) and status %d, want %v (tagged %v) and %d",
			c.name, last.Action, last.Tagged, w.status, c.action, c.tagged, c.status)
	}
	return h, r, serve, last
}

// Every answer the guard gives — the graduated policy's allow, tagged
// allow, tarpit, challenge and block, the challenge flow's script and
// beacon, and a fail-closed refusal — is allocation-free per request in
// steady state, behind a trusted proxy: entry conversion, client
// derivation, shared enrichment, the detectors, the ladder and the
// response. The serving harness reuses one response writer, so the
// measurement sees only the guard.
func TestServeHTTPZeroAllocsSteadyState(t *testing.T) {
	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	for _, c := range answerCases {
		t.Run(c.name, func(t *testing.T) {
			_, _, serve, last := answerGuard(t, c, app)
			w := &nopResponseWriter{header: make(http.Header)}
			off := 0
			allocs := testing.AllocsPerRun(500, func() {
				w.reset()
				serve(w)
				if last.Action != c.action {
					off++
				}
			})
			if off > 0 {
				t.Fatalf("%d of the measured requests left the %v rung", off, c.action)
			}
			if allocs != 0 {
				t.Errorf("%s allocates %.1f/op in steady state, want 0", c.name, allocs)
			}
		})
	}
}

// Every answer is the response the guard wrote with Header().Set and
// http.Error: the same status, header set and body, including the
// Content-Length a refusal drops.
func TestAnswersEqualSetAndHTTPError(t *testing.T) {
	for _, c := range answerCases {
		t.Run(c.name, func(t *testing.T) {
			_, r, serve, _ := answerGuard(t, c, okHandler())
			got, want := httptest.NewRecorder(), httptest.NewRecorder()
			for _, rec := range []*httptest.ResponseRecorder{got, want} {
				rec.Header().Set("Content-Length", "99")
				rec.Header().Set("Cache-Control", "no-store")
			}
			serve(got)
			c.reference(want, r, okHandler())
			if got.Code != want.Code {
				t.Errorf("status %d, want %d", got.Code, want.Code)
			}
			if !reflect.DeepEqual(got.Header(), want.Header()) {
				t.Errorf("headers\n got  %v\n want %v", got.Header(), want.Header())
			}
			if got.Body.String() != want.Body.String() {
				t.Errorf("body %q, want %q", got.Body.String(), want.Body.String())
			}
		})
	}
}

// The header values are shared by every response, so an application — or
// a middleware around the guard — that writes to X-Scrape-Verdict after
// the guard set it must not reach the next response: every shared value
// has len == cap, and Add appends into a copy.
func TestSharedHeaderValuesDoNotAlias(t *testing.T) {
	for _, v := range [][]string{verdictDegraded, verdictBlocked, verdictChallenge, verdictConfirmed,
		verdictCommercial, verdictBehavioural, verdictTrajectory, retryAfter,
		contentTypeHTML, contentTypeJS, contentTypeText, noSniff} {
		if len(v) != cap(v) {
			t.Errorf("shared header value %q has len %d, cap %d", v, len(v), cap(v))
		}
	}
	meddle := func(h http.Header) {
		h.Add("X-Scrape-Verdict", "app-added")
		h.Set("Retry-After", "60")
		h.Add("Content-Type", "charset=latin1")
	}
	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		meddle(w.Header())
		w.WriteHeader(http.StatusOK)
	})
	for _, c := range answerCases {
		t.Run(c.name, func(t *testing.T) {
			h, r, _, _ := answerGuard(t, c, app)
			outer := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				h.ServeHTTP(w, r)
				meddle(w.Header())
			})
			want := httptest.NewRecorder()
			c.reference(want, r, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				meddle(w.Header())
				w.WriteHeader(http.StatusOK)
			}))
			for i := 0; i < 3; i++ {
				got := httptest.NewRecorder()
				outer.ServeHTTP(got, r)
				// What the recorder snapshot at WriteHeader: before the outer
				// middleware meddled.
				if res := got.Result(); !reflect.DeepEqual(res.Header, want.Result().Header) {
					t.Fatalf("response %d after meddling carries\n %v\n want %v", i, res.Header, want.Result().Header)
				}
			}
		})
	}
}

// A monitoring scraper polls the metrics endpoint for the life of the
// process, so the encoder hot path over a live guard's registry — func
// instruments reading shard atomics under the topology lock, the latency
// histogram, labelled action counters — must be allocation-free once its
// buffer has grown. Traffic keeps flowing between scrapes to prove warm
// instrument updates don't re-trigger growth.
func TestMetricsScrapeZeroAllocsLiveGuard(t *testing.T) {
	var now time.Time
	g, err := New(Config{
		Shards: 4,
		Now:    func() time.Time { return now },
		Sleep:  func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	base := time.Date(2018, 3, 11, 6, 0, 0, 0, time.UTC)
	req := httptest.NewRequest(http.MethodGet, "/product/17", nil)
	req.RemoteAddr = "10.1.2.3:40000"
	req.Header.Set("User-Agent", "Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0")
	w := &nopResponseWriter{header: make(http.Header)}
	i := 0
	serve := func() {
		now = base.Add(time.Duration(i) * time.Second)
		i++
		w.reset()
		h.ServeHTTP(w, req)
	}
	for j := 0; j < 32; j++ {
		serve()
	}

	reg := g.Metrics()
	var page bytes.Buffer
	_ = reg.WritePrometheus(&page) // grow the registry's buffer once
	if page.Len() == 0 {
		t.Fatal("empty scrape")
	}
	allocs := testing.AllocsPerRun(200, func() {
		serve()
		_ = reg.WritePrometheus(io.Discard)
	})
	if allocs != 0 {
		t.Errorf("metrics scrape allocates %.1f/op on a live guard, want 0", allocs)
	}
}
