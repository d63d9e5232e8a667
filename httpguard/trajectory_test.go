package httpguard

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/ensemble"
	"divscrape/internal/faultinject"
	"divscrape/internal/statecodec"
)

// The optional third detector side. These tests pin the vote rule every
// guard judges by, the surfaces that grow a trajectory entry only when the
// side is enabled, and the failure plane and snapshot layout around it.

// Alerted and Confirmed are the ensemble's assessment — the one the ladder
// acts on — for every alert pattern of two, three and four sides: any
// alert is 1-out-of-N, and a strict majority confirms, so a pair confirms
// at two alerts (2-out-of-2), a trio at two (any one side may sit out) and
// four sides at three.
func TestVerdictsEnsembleSemantics(t *testing.T) {
	names := []string{"sentinel", "arcane", "trajectory", "hits"}
	for n := 2; n <= len(names); n++ {
		for pattern := 0; pattern < 1<<n; pattern++ {
			v := Verdicts{names: names[:n], verdicts: make([]detector.Verdict, n)}
			for i := range n {
				if pattern&(1<<i) != 0 {
					v.verdicts[i] = detector.Verdict{Alert: true, Score: 1}
				}
			}
			want := ensemble.Assess(v.verdicts)
			if v.Alerted() != want.Alerted || v.Confirmed() != want.Confirmed {
				t.Errorf("%d sides, alerts %0*b: Alerted %v Confirmed %v, the ensemble %v %v",
					n, n, pattern, v.Alerted(), v.Confirmed(), want.Alerted, want.Confirmed)
			}
			if alerts := bits.OnesCount(uint(pattern)); v.Confirmed() != (alerts >= n/2+1) {
				t.Errorf("%d sides, %d alerts: Confirmed %v", n, alerts, v.Confirmed())
			}
		}
	}
}

// trajSessions sums live trajectory sessions across shards.
func trajSessions(g *Guard) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, s := range g.shards {
		s.Lock()
		if i := slices.Index(s.Names, "trajectory"); i >= 0 {
			n += s.sessions(i)
		}
		s.Unlock()
	}
	return n
}

// browse drives a plausible multi-client browsing mix through the guard.
func browse(t *testing.T, h http.Handler, clients, requests int) {
	t.Helper()
	for c := 0; c < clients; c++ {
		ip := fmt.Sprintf("10.20.%d.%d", c/250, c%250+1)
		for i := 0; i < requests; i++ {
			path := "/product/" + strconv.Itoa(i%9)
			if i%3 == 1 {
				path = "/category/" + strconv.Itoa(i%4)
			}
			if rec := do(t, h, ip, browserUA, path); rec.Code != http.StatusOK {
				t.Fatalf("client %s request %d: %d", ip, i, rec.Code)
			}
		}
	}
}

func TestTrajectoryGuardSurfaces(t *testing.T) {
	g := newGuard(t, Config{
		EnableTrajectory: true,
		Shards:           2,
		Sleep:            func(time.Duration) {},
	})
	h := g.Wrap(okHandler())
	browse(t, h, 6, 20)

	if n := trajSessions(g); n == 0 {
		t.Fatal("no trajectory sessions after browsing traffic")
	}

	// State reports trajectory sessions per shard; their sum matches the
	// live stores.
	st := g.State()
	sum := 0
	for _, ss := range st.PerShard {
		sum += side(ss.Detectors, ss.Sessions, "trajectory")
	}
	if sum != trajSessions(g) {
		t.Errorf("state trajectory sessions %d, live %d", sum, trajSessions(g))
	}

	// Health grows a trajectory entry on every shard.
	for i, sh := range g.Health().PerShard {
		if !slices.Contains(sh.Detectors, "trajectory") {
			t.Fatalf("shard %d health has no trajectory entry", i)
		}
	}

	// The metrics scrape carries the per-detector instruments for the
	// third side.
	rec := do(t, g.DebugHandler(), "10.99.0.1", browserUA, DebugMetricsPath)
	body := rec.Body.String()
	for _, want := range []string{
		`divscrape_guard_detector_clients{detector="trajectory"}`,
		`divscrape_guard_detector_panics_total{detector="trajectory"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// A pair guard's surfaces must not change shape when the trajectory code
// is merely compiled in: no trajectory metrics, health entries or state
// fields.
func TestPairGuardSurfacesUnchanged(t *testing.T) {
	g := newGuard(t, Config{Shards: 2, Sleep: func(time.Duration) {}})
	h := g.Wrap(okHandler())
	browse(t, h, 3, 10)

	rec := do(t, g.DebugHandler(), "10.99.0.1", browserUA, DebugMetricsPath)
	if body := rec.Body.String(); strings.Contains(body, "trajectory") {
		t.Error("pair guard scrape mentions trajectory")
	}
	doc, err := json.Marshal(g.Health())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(doc), "trajectory") {
		t.Error("pair guard health document mentions trajectory")
	}
	if doc, err = json.Marshal(g.State()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(doc), "trajectory_sessions") {
		t.Error("pair guard state document carries trajectory_sessions")
	}
}

// trajHealth is the trajectory side's entry of a shard's health.
func trajHealth(sh ShardHealth) DetectorHealth { return side(sh.Detectors, sh.Sides, "trajectory") }

func TestChaosTrajectoryQuarantineAndRestore(t *testing.T) {
	g, now := chaosGuard(t, func(c *Config) { c.EnableTrajectory = true })
	h := g.Wrap(okHandler())
	warmToSnapshot(t, h, "172.16.0.9")
	if hs := g.Health(); !trajHealth(hs.PerShard[0]).HasSnapshot {
		t.Fatal("no trajectory last-good snapshot after a sweep slot")
	}

	faultinject.Enable("shard.inspect.trajectory", faultinject.Fault{Panic: "trajectory bug", Times: 1})
	if rec := do(t, h, "172.16.0.9", browserUA, "/page"); rec.Code != http.StatusOK {
		t.Fatalf("fail-open served %d during trajectory panic", rec.Code)
	}
	hs := g.Health()
	if hs.Healthy {
		t.Fatal("guard healthy with quarantined trajectory side")
	}
	if dh := trajHealth(hs.PerShard[0]); !dh.Quarantined || dh.Reason != "trajectory bug" {
		t.Fatalf("trajectory health %+v", dh)
	}
	if hs.Panics["trajectory"] != 1 {
		t.Fatalf("panic counters %v", hs.Panics)
	}
	// The pair keeps judging while the third side sits out.
	if rec := do(t, h, "172.16.0.9", browserUA, "/page"); rec.Code != http.StatusOK {
		t.Fatalf("degraded request served %d", rec.Code)
	}

	*now = now.Add(g.cfg.QuarantineBackoff + time.Second)
	if rec := do(t, h, "172.16.0.9", browserUA, "/page"); rec.Code != http.StatusOK {
		t.Fatalf("restore request served %d", rec.Code)
	}
	hs = g.Health()
	if !hs.Healthy || hs.Restores["trajectory"] != 1 {
		t.Fatalf("after backoff: healthy=%v restores=%v", hs.Healthy, hs.Restores)
	}
	// Restored warm from the last-good snapshot, not a cold start.
	if ss := g.State().PerShard[0]; side(ss.Detectors, ss.Sessions, "trajectory") == 0 {
		t.Fatal("trajectory restore came back cold despite a snapshot")
	}
}

func tripleGuard(t *testing.T, shards int) *Guard {
	t.Helper()
	return newGuard(t, Config{
		EnableTrajectory: true,
		Shards:           shards,
		Sleep:            func(time.Duration) {},
	})
}

func TestTrajectorySnapshotRoundTrip(t *testing.T) {
	src := tripleGuard(t, 3)
	browse(t, src.Wrap(okHandler()), 5, 15)
	wantSessions := trajSessions(src)
	wantTotal := src.StatsDetail().Total

	w := statecodec.NewWriter()
	src.SnapshotInto(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	// Restoring onto a different shard count redistributes every session.
	dst := tripleGuard(t, 5)
	if err := dst.RestoreFrom(statecodec.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := trajSessions(dst); got != wantSessions {
		t.Errorf("restored trajectory sessions %d, want %d", got, wantSessions)
	}
	if got := dst.StatsDetail().Total; got != wantTotal {
		t.Errorf("restored total %d, want %d", got, wantTotal)
	}
	if rec := do(t, dst.Wrap(okHandler()), "10.20.0.1", browserUA, "/page"); rec.Code != http.StatusOK {
		t.Fatalf("restored guard served %d", rec.Code)
	}
}

// Snapshot layouts are guard-shape specific: a pair guard cannot restore
// a trajectory snapshot and vice versa — silently dropping or zeroing a
// side's state would be worse than refusing.
func TestTrajectorySnapshotLayoutMismatch(t *testing.T) {
	pair := newGuard(t, Config{Shards: 2, Sleep: func(time.Duration) {}})
	triple := tripleGuard(t, 2)
	browse(t, pair.Wrap(okHandler()), 2, 10)
	browse(t, triple.Wrap(okHandler()), 2, 10)

	w := statecodec.NewWriter()
	triple.SnapshotInto(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if err := pair.RestoreFrom(statecodec.NewReader(w.Bytes())); err == nil {
		t.Error("pair guard accepted a trajectory-guard snapshot")
	}

	w = statecodec.NewWriter()
	pair.SnapshotInto(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if err := triple.RestoreFrom(statecodec.NewReader(w.Bytes())); err == nil {
		t.Error("trajectory guard accepted a pair-guard snapshot")
	}
}

func TestTrajectoryRebalanceConservesState(t *testing.T) {
	g := tripleGuard(t, 2)
	h := g.Wrap(okHandler())
	browse(t, h, 6, 15)
	wantSessions := trajSessions(g)
	wantTotal := g.StatsDetail().Total
	if wantSessions == 0 {
		t.Fatal("no trajectory sessions before rebalance")
	}

	if err := g.Rebalance(5); err != nil {
		t.Fatal(err)
	}
	if got := trajSessions(g); got != wantSessions {
		t.Errorf("rebalanced trajectory sessions %d, want %d", got, wantSessions)
	}
	if got := g.StatsDetail().Total; got != wantTotal {
		t.Errorf("rebalanced total %d, want %d", got, wantTotal)
	}
	if rec := do(t, h, "10.20.0.1", browserUA, "/page"); rec.Code != http.StatusOK {
		t.Fatalf("rebalanced guard served %d", rec.Code)
	}
}
