package httpguard

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"divscrape/internal/faultinject"
	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
	"divscrape/internal/statecodec"
	"divscrape/internal/trace"
)

// The guard's chaos suite: panics, stalls and clock skew injected into
// the inspect path, with the degraded-mode policy's promises checked on
// the wire. None of these tests sleep — stalls are channel handshakes
// through the faultinject sleep hook, and quarantine backoff runs on the
// guard's injected clock.

// chaosGuard builds a single-shard guard on a manually advanced clock,
// with the admission gate disabled unless the test enables it.
func chaosGuard(t *testing.T, mut func(*Config)) (*Guard, *time.Time) {
	t.Helper()
	t.Cleanup(faultinject.Reset)
	now := time.Date(2018, 3, 12, 10, 0, 0, 0, time.UTC)
	cfg := Config{
		Shards:            1,
		MaxInFlight:       -1,
		QuarantineBackoff: 10 * time.Second,
		Now:               func() time.Time { return now },
		Sleep:             func(time.Duration) {},
	}
	if mut != nil {
		mut(&cfg)
	}
	return newGuard(t, cfg), &now
}

// sentinelHealth is the sentinel side's entry of a shard's health.
func sentinelHealth(sh ShardHealth) DetectorHealth { return side(sh.Detectors, sh.Sides, "sentinel") }

// warmToSnapshot drives enough distinct-path requests through the guard
// to cross the sweep slot, so every shard holds a last-good snapshot.
func warmToSnapshot(t *testing.T, h http.Handler, ip string) {
	t.Helper()
	for i := 0; i < sweepEvery; i++ {
		if rec := do(t, h, ip, browserUA, "/product/"+strconv.Itoa(i)); rec.Code != http.StatusOK {
			t.Fatalf("warmup request %d: %d", i, rec.Code)
		}
	}
}

func TestChaosPanicQuarantinesAndFailOpenKeepsServing(t *testing.T) {
	var events []DegradedEvent
	g, now := chaosGuard(t, func(c *Config) {
		c.OnDegraded = func(ev DegradedEvent) { events = append(events, ev) }
	})
	h := g.Wrap(okHandler())
	warmToSnapshot(t, h, "172.16.0.9")
	if hs := g.Health(); !sentinelHealth(hs.PerShard[0]).HasSnapshot {
		t.Fatal("no last-good snapshot after a sweep slot")
	}

	// The sentinel panics once mid-inspect. Fail-open: the request is
	// still served on the behavioural detector alone.
	faultinject.Enable("shard.inspect.sentinel", faultinject.Fault{Panic: "injected detector bug", Times: 1})
	if rec := do(t, h, "172.16.0.9", browserUA, "/page"); rec.Code != http.StatusOK {
		t.Fatalf("fail-open served %d during panic, want 200", rec.Code)
	}
	hs := g.Health()
	if hs.Healthy {
		t.Fatal("guard healthy with a quarantined detector")
	}
	if dh := sentinelHealth(hs.PerShard[0]); !dh.Quarantined || dh.Reason != "injected detector bug" {
		t.Fatalf("sentinel health %+v", dh)
	}
	if hs.Panics["sentinel"] != 1 {
		t.Fatalf("panic counter %v", hs.Panics)
	}

	// Requests during quarantine keep flowing, counted as degraded.
	for i := 0; i < 5; i++ {
		if rec := do(t, h, "172.16.0.9", browserUA, "/page"); rec.Code != http.StatusOK {
			t.Fatalf("degraded request served %d", rec.Code)
		}
	}
	if hs := g.Health(); hs.DegradedRequests < 6 {
		t.Fatalf("degraded requests %d, want >= 6", hs.DegradedRequests)
	}

	// Before the backoff elapses no restore is attempted; after it, the
	// next request rebuilds the detector from the last good snapshot.
	*now = now.Add(g.cfg.QuarantineBackoff + time.Second)
	if rec := do(t, h, "172.16.0.9", browserUA, "/page"); rec.Code != http.StatusOK {
		t.Fatalf("restore request served %d", rec.Code)
	}
	hs = g.Health()
	if !hs.Healthy || hs.Restores["sentinel"] != 1 {
		t.Fatalf("after backoff: healthy=%v restores=%v", hs.Healthy, hs.Restores)
	}
	// The restored detector carries its snapshot state: the warmed
	// clients are still known, not a cold start.
	if st := g.State(); side(st.PerShard[0].Detectors, st.PerShard[0].Sessions, "sentinel") == 0 {
		t.Fatal("restore came back cold despite a last-good snapshot")
	}
	// The observer saw exactly one quarantine and one restore.
	if len(events) != 2 || events[0].Kind != "quarantine" || events[1].Kind != "restore" {
		t.Fatalf("degraded events %+v", events)
	}
	if events[0].Detector != "sentinel" || events[0].Reason != "injected detector bug" {
		t.Fatalf("quarantine event %+v", events[0])
	}
}

func TestChaosFailClosedRefusesUntilRestore(t *testing.T) {
	g, now := chaosGuard(t, func(c *Config) { c.Degraded = FailClosed })
	h := g.Wrap(okHandler())
	if rec := do(t, h, "10.1.1.1", browserUA, "/"); rec.Code != http.StatusOK {
		t.Fatalf("healthy fail-closed guard served %d", rec.Code)
	}

	faultinject.Enable("shard.inspect.arcane", faultinject.Fault{Panic: "behavioural bug", Times: 1})
	rec := do(t, h, "10.1.1.1", browserUA, "/")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("fail-closed served %d during panic, want 503", rec.Code)
	}
	if rec.Header().Get("X-Scrape-Verdict") != "degraded" || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("refusal headers: %v", rec.Header())
	}
	// Still refused while quarantined.
	if rec := do(t, h, "10.1.1.1", browserUA, "/"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("quarantined fail-closed served %d", rec.Code)
	}
	// The health endpoint mirrors the degradation as a 503.
	if rec := do(t, g.DebugHandler(), "10.9.9.9", browserUA, DebugHealthPath); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("health endpoint %d for degraded guard", rec.Code)
	}

	// Backoff elapses: the detector restores (cold — no snapshot was
	// ever taken) and service resumes.
	*now = now.Add(g.cfg.QuarantineBackoff + time.Second)
	if rec := do(t, h, "10.1.1.1", browserUA, "/"); rec.Code != http.StatusOK {
		t.Fatalf("restored fail-closed guard served %d", rec.Code)
	}
	if rec := do(t, g.DebugHandler(), "10.9.9.9", browserUA, DebugHealthPath); rec.Code != http.StatusOK {
		t.Fatalf("health endpoint %d for restored guard", rec.Code)
	}
}

// A request refused under fail-closed never reached the engine, so its
// flight record carries no ladder fields — it used to say the ladder
// allowed it. OnDecision still hears the Allow the guard answers with.
func TestChaosFailClosedRefusalRecordsNoLadder(t *testing.T) {
	var recs []trace.Record
	var decisions []mitigate.Decision
	g, _ := chaosGuard(t, func(c *Config) {
		c.Degraded = FailClosed
		c.Trace = &trace.RecorderConfig{Sink: func(r trace.Record) { recs = append(recs, r) }}
		c.OnDecision = func(_ logfmt.Entry, _ Verdicts, d mitigate.Decision) { decisions = append(decisions, d) }
	})
	h := g.Wrap(okHandler())
	do(t, h, "10.1.1.1", browserUA, "/")
	faultinject.Enable("shard.inspect.arcane", faultinject.Fault{Panic: "behavioural bug", Times: 1})
	if rec := do(t, h, "10.1.1.1", browserUA, "/"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("fail-closed served %d during panic, want 503", rec.Code)
	}
	if len(recs) != 2 || len(decisions) != 2 {
		t.Fatalf("%d records and %d decisions for 2 requests", len(recs), len(decisions))
	}
	if judged := recs[0]; judged.Action != "allow" || judged.RungBefore != "allow" || judged.RungAfter != "allow" {
		t.Errorf("judged request recorded %q %q->%q", judged.Action, judged.RungBefore, judged.RungAfter)
	}
	refused := recs[1]
	if refused.Action != "" || refused.RungBefore != "" || refused.RungAfter != "" {
		t.Errorf("refused request recorded ladder fields %q %q->%q", refused.Action, refused.RungBefore, refused.RungAfter)
	}
	if !refused.Detectors[1].Skipped {
		t.Error("refused request's record does not mark arcane skipped")
	}
	if decisions[1] != (mitigate.Decision{Action: mitigate.Allow}) {
		t.Errorf("OnDecision heard %+v for the refused request, want the zero Allow", decisions[1])
	}
}

func TestChaosRepeatPanicsDoubleTheBackoff(t *testing.T) {
	g, now := chaosGuard(t, nil)
	h := g.Wrap(okHandler())
	// Every sentinel inspect panics: each restore attempt immediately
	// re-quarantines, and the backoff must double instead of hot-looping
	// rebuilds.
	faultinject.Enable("shard.inspect.sentinel", faultinject.Fault{Panic: "persistent bug"})
	do(t, h, "10.2.2.2", browserUA, "/")
	first := sentinelHealth(g.Health().PerShard[0]).RetryAt
	if want := now.Add(10 * time.Second); !first.Equal(want) {
		t.Fatalf("first retryAt %v, want %v", first, want)
	}
	*now = now.Add(11 * time.Second)
	do(t, h, "10.2.2.2", browserUA, "/")
	second := sentinelHealth(g.Health().PerShard[0]).RetryAt
	if want := now.Add(20 * time.Second); !second.Equal(want) {
		t.Fatalf("second retryAt %v, want doubled backoff %v", second, want)
	}
	if p := g.Health().Panics["sentinel"]; p != 2 {
		t.Fatalf("panics %d, want 2", p)
	}
}

func TestChaosPanicPastDetectorBarrierReleasesShard(t *testing.T) {
	// A panic that escapes the detector barrier itself — here from the
	// OnDegraded observer, which runs under the shard mutex — must not
	// leave the mutex held or leak the admission slot: either would turn
	// one fault into a shard that first hangs queued requests and then
	// sheds 100% of its traffic forever.
	g, _ := chaosGuard(t, func(c *Config) {
		c.MaxInFlight = 1
		c.OnDegraded = func(DegradedEvent) { panic("observer bug") }
	})
	h := g.Wrap(okHandler())
	faultinject.Enable("shard.inspect.sentinel", faultinject.Fault{Panic: "injected detector bug", Times: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("observer panic did not propagate")
			}
		}()
		do(t, h, "10.6.6.6", browserUA, "/boom")
	}()
	if n := g.shards[0].inflight.Load(); n != 0 {
		t.Fatalf("admission gauge leaked: inflight %d after escaped panic", n)
	}
	// The shard lock was released on the way out: subsequent requests
	// are judged normally (fail-open, sentinel quarantined) instead of
	// deadlocking — and with MaxInFlight 1, a leaked slot would shed
	// every one of them.
	for i := 0; i < 3; i++ {
		if rec := do(t, h, "10.6.6.6", browserUA, "/after"); rec.Code != http.StatusOK {
			t.Fatalf("request after escaped panic served %d", rec.Code)
		}
	}
	if hs := g.Health(); hs.Shed != 0 {
		t.Fatalf("shed %d, want 0 — the admission slot must survive the panic", hs.Shed)
	}
}

func TestChaosOverloadShedsToDegradedPolicy(t *testing.T) {
	g, _ := chaosGuard(t, func(c *Config) { c.MaxInFlight = 1 })
	h := g.Wrap(okHandler())

	// A channel handshake through the injected stall: the first request
	// blocks mid-inspect holding its in-flight slot, the second must
	// shed without ever queueing on the shard lock.
	entered := make(chan struct{})
	release := make(chan struct{})
	faultinject.SetSleep(func(time.Duration) {
		close(entered)
		<-release
	})
	faultinject.Enable("shard.inspect.sentinel", faultinject.Fault{Delay: time.Second, Times: 1})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if rec := do(t, h, "10.3.3.3", browserUA, "/slow"); rec.Code != http.StatusOK {
			t.Errorf("stalled request served %d", rec.Code)
		}
	}()
	<-entered
	// Fail-open: the shed request is served, just not judged.
	if rec := do(t, h, "10.3.3.3", browserUA, "/shed"); rec.Code != http.StatusOK {
		t.Fatalf("fail-open shed request served %d", rec.Code)
	}
	close(release)
	wg.Wait()

	hs := g.Health()
	if hs.Shed != 1 {
		t.Fatalf("shed counter %d, want 1", hs.Shed)
	}
	if g.StatsDetail().Total != 2 {
		t.Fatalf("total %d, want 2 — shed requests are still counted", g.StatsDetail().Total)
	}
}

func TestChaosOverloadFailClosedRefuses(t *testing.T) {
	g, _ := chaosGuard(t, func(c *Config) {
		c.MaxInFlight = 1
		c.Degraded = FailClosed
	})
	h := g.Wrap(okHandler())

	entered := make(chan struct{})
	release := make(chan struct{})
	faultinject.SetSleep(func(time.Duration) {
		close(entered)
		<-release
	})
	faultinject.Enable("shard.inspect.sentinel", faultinject.Fault{Delay: time.Second, Times: 1})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		do(t, h, "10.4.4.4", browserUA, "/slow")
	}()
	<-entered
	rec := do(t, h, "10.4.4.4", browserUA, "/shed")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("fail-closed shed request served %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("refusal missing Retry-After")
	}
	close(release)
	wg.Wait()
	if hs := g.Health(); hs.Shed != 1 {
		t.Fatalf("shed counter %d", hs.Shed)
	}
}

func TestChaosClockSkewDoesNotDisturbService(t *testing.T) {
	g, _ := chaosGuard(t, nil)
	h := g.Wrap(okHandler())
	for i := 0; i < 10; i++ {
		if rec := do(t, h, "10.5.5.5", browserUA, "/a"); rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d", i, rec.Code)
		}
	}
	// The clock jumps three minutes backwards mid-stream (an NTP step).
	// The guard must keep judging — monotonising or tolerating regressed
	// event time is the detectors' documented contract.
	faultinject.Enable("httpguard.clock", faultinject.Fault{Skew: -3 * time.Minute, Times: 5})
	for i := 0; i < 5; i++ {
		if rec := do(t, h, "10.5.5.5", browserUA, "/b"); rec.Code != http.StatusOK {
			t.Fatalf("skewed request %d: %d", i, rec.Code)
		}
	}
	// Skew exhausted: time snaps forward again.
	for i := 0; i < 5; i++ {
		if rec := do(t, h, "10.5.5.5", browserUA, "/c"); rec.Code != http.StatusOK {
			t.Fatalf("post-skew request %d: %d", i, rec.Code)
		}
	}
	if total := g.StatsDetail().Total; total != 20 {
		t.Fatalf("total %d, want 20", total)
	}
	if !g.Health().Healthy {
		t.Fatal("clock skew degraded the guard")
	}
}

// A snapshot or rebalance taken while a side is still quarantined carries
// that side as its restore would leave it — warm from its restore point —
// never the instance that panicked: the guard it lands in decides every
// later request as a guard whose side restored at that point.
func TestChaosSnapshotMidQuarantineResumesAsRestored(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	const backoff = 10 * time.Second
	events := rebalanceEvents(t)
	refresh, at := len(events)/4, len(events)/2
	// From cut on every request is past arcane's backoff, so the guard
	// left alone restores it on its shard's first request.
	cut := at + 1
	for events[cut].Entry.Time.Before(events[at].Entry.Time.Add(backoff)) {
		cut++
	}
	// A run serves events[i] at its log time and records every decision.
	type run struct {
		g   *Guard
		i   int
		out []string
	}
	start := func(shards, from int) *run {
		r := &run{i: from}
		r.g = newGuard(t, Config{Policy: graduated(), Shards: shards, QuarantineBackoff: backoff, MaxInFlight: -1,
			Now: func() time.Time { return events[r.i].Entry.Time }, Sleep: func(time.Duration) {},
			OnDecision: func(_ logfmt.Entry, v Verdicts, d mitigate.Decision) {
				r.out = append(r.out, fmt.Sprintf("%+v %v", v, d.Action))
			}})
		return r
	}
	drive := func(r *run, to int) {
		h := r.g.Wrap(okHandler())
		for ; r.i < to; r.i++ {
			e := &events[r.i].Entry
			req := httptest.NewRequest(e.Method, e.Path, nil)
			req.RemoteAddr = e.RemoteAddr + ":40000"
			req.Header.Set("User-Agent", e.UserAgent)
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
	}
	// quarantined takes a two-shard guard to cut: restore points refreshed
	// at refresh, arcane panicking on request at and sitting out since.
	quarantined := func() *run {
		r := start(2, 0)
		drive(r, refresh)
		for _, s := range r.g.shards {
			s.Lock()
			s.RefreshLastGood()
			s.Unlock()
		}
		drive(r, at)
		faultinject.Enable("shard.inspect.arcane", faultinject.Fault{Panic: "arcane bug", Times: 1})
		drive(r, cut)
		if hs := r.g.Health(); hs.Panics["arcane"] != 1 || hs.Restores["arcane"] != 0 {
			t.Fatalf("before the cut: panics %v, restores %v", hs.Panics, hs.Restores)
		}
		r.out = nil
		return r
	}
	ref := quarantined()
	drive(ref, len(events))
	if hs := ref.g.Health(); hs.Restores["arcane"] != 1 {
		t.Fatalf("the reference restored arcane %d times", hs.Restores["arcane"])
	}

	rebalanced := quarantined()
	if err := rebalanced.g.Rebalance(3); err != nil {
		t.Fatal(err)
	}
	w := statecodec.NewWriter()
	quarantined().g.SnapshotInto(w)
	restored := start(2, cut)
	if err := restored.g.RestoreFrom(statecodec.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*run{"rebalanced to 3 shards": rebalanced, "restored from a snapshot": restored} {
		drive(r, len(events))
		if len(r.out) != len(ref.out) {
			t.Fatalf("%s: %d decisions after the cut, want %d", name, len(r.out), len(ref.out))
		}
		for i, want := range ref.out {
			if r.out[i] != want {
				t.Fatalf("%s: request %d decided %s, a guard that restored at the cut %s", name, cut+i, r.out[i], want)
			}
		}
	}
}
