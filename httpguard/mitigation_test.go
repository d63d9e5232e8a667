package httpguard

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
	"divscrape/internal/workload"
)

func graduated() *mitigate.Policy {
	p := mitigate.Graduated()
	return &p
}

// TestGraduatedLadderOverHTTP drives a blatant scraper through the guard
// and expects the full ladder in order: served, then challenged, then
// blocked — never the reverse.
func TestGraduatedLadderOverHTTP(t *testing.T) {
	clock := newFakeClock()
	var delays []time.Duration
	g := newGuard(t, Config{
		Policy: graduated(),
		Now:    func() time.Time { return clock.tick(time.Second) },
		Sleep:  func(d time.Duration) { delays = append(delays, d) },
	})
	h := g.Wrap(okHandler())

	stage := 0 // 0 served, 1 challenged, 2 blocked
	var sawServed, sawChallenged, sawBlocked bool
	for i := 0; i < 60; i++ {
		rec := do(t, h, "172.16.0.9", toolUA, "/api/price/"+strconv.Itoa(i))
		switch rec.Code {
		case http.StatusOK:
			sawServed = true
			if stage > 0 {
				t.Fatalf("request %d served after escalation began", i)
			}
		case http.StatusServiceUnavailable:
			sawChallenged = true
			if stage > 1 {
				t.Fatalf("request %d challenged after a block", i)
			}
			stage = 1
			if rec.Header().Get("X-Scrape-Verdict") != "challenge" {
				t.Error("challenge response not labelled")
			}
			if !strings.Contains(rec.Body.String(), "__challenge.js") {
				t.Error("challenge interstitial does not reference the script")
			}
		case http.StatusForbidden:
			sawBlocked = true
			stage = 2
		default:
			t.Fatalf("request %d: unexpected status %d", i, rec.Code)
		}
	}
	if !sawServed || !sawChallenged || !sawBlocked {
		t.Fatalf("ladder incomplete: served=%v challenged=%v blocked=%v",
			sawServed, sawChallenged, sawBlocked)
	}
	if len(delays) == 0 {
		t.Error("tarpit rung never fired")
	}
	stats := g.StatsDetail()
	if stats.Actions.Tarpitted == 0 || stats.Actions.Challenged == 0 || stats.Actions.Blocked == 0 {
		t.Errorf("stats missed ladder actions: %+v", stats.Actions)
	}
}

// TestChallengeFlowOverHTTP: a challenged client that fetches the script
// and posts the beacon is no longer challenged.
func TestChallengeFlowOverHTTP(t *testing.T) {
	clock := newFakeClock()
	// Low rungs so a single-tool alert escalates to Challenge fast, with
	// Block far away — the client under test should sit at Challenge.
	p := mitigate.Graduated()
	p.TarpitThreshold = 0.05
	p.ChallengeThreshold = 0.1
	p.BlockThreshold = 50
	p.ScoreCap = 60
	g := newGuard(t, Config{
		Policy: &p,
		Now:    func() time.Time { return clock.tick(time.Second) },
		Sleep:  func(time.Duration) {},
	})
	h := g.Wrap(okHandler())

	const ip = "172.16.0.9"
	var challenged bool
	for i := 0; i < 20 && !challenged; i++ {
		rec := do(t, h, ip, toolUA, "/api/price/"+strconv.Itoa(i))
		challenged = rec.Code == http.StatusServiceUnavailable
	}
	if !challenged {
		t.Fatal("client never challenged")
	}

	// The browser-side of the interstitial: fetch the script, post the
	// solution.
	rec := do(t, h, ip, toolUA, "/__challenge.js")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "__verify") {
		t.Fatalf("challenge script fetch: %d %q", rec.Code, rec.Body.String())
	}
	req := httptest.NewRequest(http.MethodPost, "/__verify", nil)
	req.RemoteAddr = ip + ":51234"
	req.Header.Set("User-Agent", toolUA)
	vrec := httptest.NewRecorder()
	h.ServeHTTP(vrec, req)
	if vrec.Code != http.StatusNoContent {
		t.Fatalf("verify beacon answered %d", vrec.Code)
	}

	// Inside the pass window the client is tarpitted at worst, not
	// challenged or blocked.
	for i := 0; i < 5; i++ {
		rec := do(t, h, ip, toolUA, "/api/price/"+strconv.Itoa(100+i))
		if rec.Code != http.StatusOK {
			t.Fatalf("post-solve request %d denied with %d", i, rec.Code)
		}
	}
	if g.StatsDetail().ChallengesPassed != 1 {
		t.Errorf("challenges passed = %d", g.StatsDetail().ChallengesPassed)
	}
}

// The challenge flow is whatever the detectors see as the challenge flow:
// the guard classifies the request line it logs, not a decoded reading of
// it. A path that merely percent-decodes to the beacon is ordinary traffic
// — it used to be answered 204 and counted as a solved challenge while
// sentinel, and a replay of the guard's own log, saw an unknown path — and
// a query string does not hide the real one.
func TestChallengeBeaconIsWhatTheDetectorsSee(t *testing.T) {
	clock := newFakeClock()
	g := newGuard(t, Config{
		Policy: graduated(),
		Now:    func() time.Time { return clock.tick(time.Second) },
		Sleep:  func(time.Duration) {},
	})
	h := g.Wrap(okHandler())
	post := func(target string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, target, nil)
		req.RemoteAddr = "10.0.0.5:51234"
		req.Header.Set("User-Agent", browserUA)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := post("/__verif%79"); rec.Code != http.StatusOK || rec.Body.String() != "ok" {
		t.Errorf("POST /__verif%%79 answered %d %q, want the application's 200", rec.Code, rec.Body.String())
	}
	if n := g.StatsDetail().ChallengesPassed; n != 0 {
		t.Errorf("an encoded look-alike counted as %d solved challenges", n)
	}
	if rec := post("/__verify?x=1"); rec.Code != http.StatusNoContent {
		t.Errorf("POST /__verify?x=1 answered %d, want 204", rec.Code)
	}
	if n := g.StatsDetail().ChallengesPassed; n != 1 {
		t.Errorf("challenges passed = %d after the real beacon, want 1", n)
	}
}

// TestStaticPoliciesServeNoChallengeFlow: without a graduated policy the
// guard must not shadow the application's challenge endpoints.
func TestStaticPoliciesServeNoChallengeFlow(t *testing.T) {
	clock := newFakeClock()
	g := newGuard(t, Config{
		Now: func() time.Time { return clock.tick(time.Second) },
	})
	marker := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	h := g.Wrap(marker)
	rec := do(t, h, "10.0.0.5", browserUA, "/__challenge.js")
	if rec.Code != http.StatusTeapot {
		t.Errorf("observe guard intercepted the challenge script: %d", rec.Code)
	}
}

// TestTrustedProxyClientDerivation covers the X-Forwarded-For /
// X-Real-IP satellite: detection must key on the real client, but only
// when the peer is trusted.
func TestTrustedProxyClientDerivation(t *testing.T) {
	cases := []struct {
		name    string
		trusted []string
		peer    string
		xff     string
		realIP  string
		want    string
	}{
		{"no trust ignores xff", nil, "10.0.0.1", "203.0.113.9", "", "10.0.0.1"},
		{"trusted peer takes xff", []string{"10.0.0.1"}, "10.0.0.1", "203.0.113.9", "", "203.0.113.9"},
		{"walks past trusted hops", []string{"10.0.0.0/8"}, "10.0.0.1", "203.0.113.9, 10.0.0.2", "", "203.0.113.9"},
		{"all hops trusted uses leftmost", []string{"10.0.0.0/8"}, "10.0.0.1", "10.0.0.7, 10.0.0.2", "", "10.0.0.7"},
		{"malformed xff falls back to peer", []string{"10.0.0.1"}, "10.0.0.1", "not-an-ip", "", "10.0.0.1"},
		{"x-real-ip fallback", []string{"10.0.0.1"}, "10.0.0.1", "", "203.0.113.7", "203.0.113.7"},
		{"untrusted peer ignores x-real-ip", nil, "10.9.9.9", "", "203.0.113.7", "10.9.9.9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			var got string
			g := newGuard(t, Config{
				TrustedProxies: tc.trusted,
				Now:            func() time.Time { return clock.tick(time.Second) },
				OnDecision: func(e logfmt.Entry, _ Verdicts, _ mitigate.Decision) {
					got = e.RemoteAddr
				},
			})
			h := g.Wrap(okHandler())
			req := httptest.NewRequest(http.MethodGet, "/", nil)
			req.RemoteAddr = tc.peer + ":443"
			req.Header.Set("User-Agent", browserUA)
			if tc.xff != "" {
				req.Header.Set("X-Forwarded-For", tc.xff)
			}
			if tc.realIP != "" {
				req.Header.Set("X-Real-IP", tc.realIP)
			}
			h.ServeHTTP(httptest.NewRecorder(), req)
			if got != tc.want {
				t.Errorf("client derived as %q, want %q", got, tc.want)
			}
		})
	}
	if _, err := New(Config{TrustedProxies: []string{"bogus"}}); err == nil {
		t.Error("invalid trusted proxy accepted")
	}
}

// TestEnforcementShardConsistency mirrors PR 1's pipeline equivalence
// test on the response plane: a guard with 1 shard and one with N must
// produce identical per-client action sequences on the same deterministic
// workload, because a client's detection and enforcement state is
// shard-local.
func TestEnforcementShardConsistency(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed:     23,
		Duration: 90 * time.Minute,
		Profile: workload.Profile{
			HumanVisitors:       12,
			HumanSessionsPerDay: 6,
			NaiveScrapers:       1,
			NaiveRate:           1,
			NaiveDuty:           0.5,
			AggressiveScrapers:  1,
			AggressiveRate:      4,
			AggressiveDuty:      0.3,
			StealthBots:         3,
			StealthSessionGap:   20 * time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}

	drive := func(shards int) map[string][]mitigate.Action {
		actions := map[string][]mitigate.Action{}
		var now time.Time
		g := newGuard(t, Config{
			Policy: graduated(),
			Shards: shards,
			Now:    func() time.Time { return now },
			Sleep:  func(time.Duration) {},
			OnDecision: func(e logfmt.Entry, _ Verdicts, d mitigate.Decision) {
				actions[e.RemoteAddr] = append(actions[e.RemoteAddr], d.Action)
			},
		})
		h := g.Wrap(okHandler())
		for i := range events {
			e := &events[i].Entry
			now = e.Time
			req := httptest.NewRequest(e.Method, e.Path, nil)
			req.RemoteAddr = e.RemoteAddr + ":40000"
			req.Header.Set("User-Agent", e.UserAgent)
			if e.Referer != "-" {
				req.Header.Set("Referer", e.Referer)
			}
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
		if got, _, _ := g.Stats(); got != uint64(len(events)) {
			t.Fatalf("guard saw %d of %d events", got, len(events))
		}
		return actions
	}

	one := drive(1)
	many := drive(8)
	if len(one) != len(many) {
		t.Fatalf("client counts differ: %d vs %d", len(one), len(many))
	}
	for client, seq := range one {
		other, ok := many[client]
		if !ok {
			t.Fatalf("client %s missing from sharded run", client)
		}
		if fmt.Sprint(seq) != fmt.Sprint(other) {
			t.Fatalf("client %s action sequences diverge:\n 1 shard: %v\n 8 shards: %v",
				client, seq, other)
		}
	}
}
