package httpguard

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/faultinject"
	"divscrape/internal/logfmt"
	"divscrape/internal/registry"
	"divscrape/internal/sessions"
	"divscrape/internal/statecodec"
	"divscrape/internal/trace"
)

// Nothing outside the registry may know which detectors exist. These tests
// put a detector the guard has never heard of into the trio's side list —
// in the first slot, in the third, then as a fourth side beside the trio —
// and walk it through everything a shard does with a side.

// hitCounter counts each address's requests and alerts from the fifth on.
// It has its own name, its own snapshot tag and no detector.Explainer.
type hitCounter struct{ store *sessions.Store[uint64] }

const (
	hitsName           = "hits"
	tagHits     uint16 = 0x4854
	hitsAlertAt        = 5
)

func newHitCounter() (detector.Detector, error) {
	store, err := sessions.NewStore(sessions.Config[uint64]{
		IdleTimeout: 30 * time.Minute,
		Init:        func(*uint64, time.Time) {},
		Snapshot:    func(w *statecodec.Writer, n *uint64) { w.Uint64(*n) },
		Restore: func(r *statecodec.Reader, n *uint64) error {
			*n = r.Uint64()
			return r.Err()
		},
	})
	return &hitCounter{store: store}, err
}

func (d *hitCounter) Name() string { return hitsName }
func (d *hitCounter) Reset()       { d.store.Reset() }

func (d *hitCounter) Inspect(req *detector.Request) detector.Verdict {
	var v detector.Verdict
	d.InspectInto(req, &v)
	return v
}

func (d *hitCounter) InspectInto(req *detector.Request, out *detector.Verdict) {
	n, _ := d.store.Touch(sessions.IPOnlyKey(req.IP), req.Entry.Time)
	*n++
	*out = detector.Verdict{Score: min(float64(*n)/10, 0.99)}
	if *n >= hitsAlertAt {
		out.Alert = true
		out.Reasons.Append(hitsName)
	}
}

func (d *hitCounter) Sessions() int                    { return d.store.Len() }
func (d *hitCounter) IdleTimeout() time.Duration       { return 30 * time.Minute }
func (d *hitCounter) EvictBefore(cutoff time.Time) int { return d.store.EvictBefore(cutoff) }

func hitStores(shards []detector.Detector) []*sessions.Store[uint64] {
	stores := make([]*sessions.Store[uint64], len(shards))
	for i, s := range shards {
		stores[i] = s.(*hitCounter).store
	}
	return stores
}

func (d *hitCounter) SnapshotInto(w *statecodec.Writer) {
	_ = d.SnapshotShardsInto(w, []detector.Detector{d})
}

func (d *hitCounter) RestoreFrom(r *statecodec.Reader) error {
	return d.RestoreShards(r, []detector.Detector{d}, func(uint32) int { return 0 })
}

func (d *hitCounter) SnapshotShardsInto(w *statecodec.Writer, shards []detector.Detector) error {
	w.Tag(tagHits)
	sessions.SnapshotMerged(w, hitStores(shards))
	return w.Err()
}

func (d *hitCounter) RestoreShards(r *statecodec.Reader, shards []detector.Detector, part func(uint32) int) error {
	if err := r.Expect(tagHits); err != nil {
		return err
	}
	return sessions.RestorePartitioned(r, hitStores(shards), func(k sessions.Key) int { return part(k.IP) })
}

// trio is the trajectory-enabled guard's side names.
var trio = []string{"sentinel", "arcane", "trajectory"}

// trioWithHits is the trio's factories with the hit counter in slot, or
// beside them when slot is past the trio.
func trioWithHits(t *testing.T, slot int) []detector.Factory {
	t.Helper()
	factories, err := registry.Factories(registry.Config{}, trio...)
	if err != nil {
		t.Fatal(err)
	}
	if slot == len(factories) {
		return append(factories, newHitCounter)
	}
	factories[slot] = newHitCounter
	return factories
}

// side is the named side's entry of a health or state document's shard.
func side[T any](names []string, values []T, name string) T {
	return values[slices.Index(names, name)]
}

// liveSessions sums side slot's live sessions across shards.
func liveSessions(g *Guard, slot int) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, s := range g.shards {
		s.Lock()
		n += s.sessions(slot)
		s.Unlock()
	}
	return n
}

func TestGuardJudgesWithAnUnknownSide(t *testing.T) {
	for _, slot := range []int{0, 2, 3} {
		t.Run(fmt.Sprintf("slot%d", slot), func(t *testing.T) { unknownSideScenario(t, slot) })
	}
}

func unknownSideScenario(t *testing.T, slot int) {
	t.Cleanup(faultinject.Reset)
	const client = "172.16.0.9"
	replaced := "" // the trio side the hit counter took the place of
	if slot < len(trio) {
		replaced = trio[slot]
	}
	sides := len(trioWithHits(t, slot))
	now := time.Date(2018, 3, 12, 10, 0, 0, 0, time.UTC)
	var last detector.Verdict
	var events []DegradedEvent
	cfg := Config{
		Shards:            2,
		MaxInFlight:       -1,
		QuarantineBackoff: 10 * time.Second,
		EvictWindow:       10 * time.Minute, // inside every side's idle timeout, so sweeps beat lazy expiry
		Now:               func() time.Time { return now },
		Sleep:             func(time.Duration) {},
		OnVerdict: func(_ logfmt.Entry, v Verdicts) {
			if v.Len() != sides || v.Name(slot) != hitsName {
				t.Fatalf("verdicts of %d sides, %q in slot %d", v.Len(), v.Name(slot), slot)
			}
			last = v.At(slot)
		},
		OnDegraded: func(ev DegradedEvent) { events = append(events, ev) },
		Trace:      &trace.RecorderConfig{Clients: []string{client}},
	}
	g, err := newWithFactories(cfg, trioWithHits(t, slot))
	if err != nil {
		t.Fatal(err)
	}
	h := g.Wrap(okHandler())

	// Serve: the side judges into its slot of Verdicts, and a sweep slot
	// leaves it a last-good snapshot on the client's shard.
	browse(t, h, 20, 3)
	warmToSnapshot(t, h, client)
	if !last.Alert || strings.Join(last.Reasons.Strings(), ",") != hitsName {
		t.Fatalf("slot %d verdict after %d requests: %+v", slot, sweepEvery, last)
	}
	home := -1
	for i, sh := range g.Health().PerShard {
		if side(sh.Detectors, sh.Sides, hitsName).HasSnapshot {
			home = i
		}
	}
	if home < 0 {
		t.Fatal("no last-good snapshot of the side after a sweep slot")
	}

	// Quarantine and restore, through the side's own fault point.
	faultinject.Enable("shard.inspect."+hitsName, faultinject.Fault{Panic: "hits bug", Times: 1})
	if rec := do(t, h, client, browserUA, "/page"); rec.Code != http.StatusOK {
		t.Fatalf("fail-open served %d during the side's panic", rec.Code)
	}
	if last != (detector.Verdict{}) {
		t.Errorf("a side that sat out left a verdict: %+v", last)
	}
	hs := g.Health()
	if sh := hs.PerShard[home]; sh.Detectors[slot] != hitsName {
		t.Fatalf("health names %v", sh.Detectors)
	}
	if dh := side(hs.PerShard[home].Detectors, hs.PerShard[home].Sides, hitsName); hs.Healthy || !dh.Quarantined || dh.Reason != "hits bug" {
		t.Fatalf("health after the panic: healthy=%v slot=%+v", hs.Healthy, dh)
	}
	now = now.Add(cfg.QuarantineBackoff + time.Second)
	if rec := do(t, h, client, browserUA, "/page"); rec.Code != http.StatusOK {
		t.Fatalf("restore request served %d", rec.Code)
	}
	hs = g.Health()
	if !hs.Healthy || hs.Panics[hitsName] != 1 || hs.Restores[hitsName] != 1 {
		t.Fatalf("after backoff: healthy=%v panics=%v restores=%v", hs.Healthy, hs.Panics, hs.Restores)
	}
	if _, known := hs.Panics[replaced]; known {
		t.Errorf("health still counts the replaced %s side", replaced)
	}
	if len(hs.Panics) != sides {
		t.Errorf("health counts panics of %d sides, want %d", len(hs.Panics), sides)
	}
	if len(events) != 2 || events[0].Detector != hitsName || events[0].Kind != "quarantine" ||
		events[1].Detector != hitsName || events[1].Kind != "restore" {
		t.Fatalf("degraded events %+v", events)
	}
	// Restored warm: the client's count carried over, so it still alerts.
	if !last.Alert {
		t.Error("the side came back cold despite a last-good snapshot")
	}

	// State and metrics read the side by index.
	sum := 0
	for _, ss := range g.State().PerShard {
		sum += side(ss.Detectors, ss.Sessions, hitsName)
	}
	if want := liveSessions(g, slot); sum != want || want != 21 {
		t.Errorf("state reports %d sessions in slot %d, live %d, want 21", sum, slot, want)
	}
	body := do(t, g.DebugHandler(), "10.99.0.1", browserUA, DebugMetricsPath).Body.String()
	for _, want := range []string{
		`divscrape_guard_detector_clients{detector="hits"} 21`,
		`divscrape_guard_detector_panics_total{detector="hits"} 1`,
		`divscrape_guard_detector_restores_total{detector="hits"} 1`,
		`divscrape_stage_seconds_count{detector="hits",stage="detect"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if replaced != "" && strings.Contains(body, `detector="`+replaced+`"`) {
		t.Errorf("metrics still label the replaced %s side", replaced)
	}
	// Flight records: a detector record per side under the sides' names;
	// the side has no Explainer, so no features, and is marked skipped on
	// the request it sat out.
	recs := g.FlightRecorder().Recent(0, client, "")
	if len(recs) == 0 {
		t.Fatal("no flight records for the watched client")
	}
	skipped := 0
	for _, r := range recs {
		if len(r.Detectors) != sides || r.Detectors[slot].Detector != hitsName {
			t.Fatalf("record detectors %+v", r.Detectors)
		}
		if r.Detectors[slot].Features != nil {
			t.Fatal("a side without an Explainer recorded features")
		}
		if r.Detectors[slot].Skipped {
			skipped++
		}
	}
	if skipped != 1 {
		t.Errorf("%d records mark the side skipped, want the one panic", skipped)
	}

	// Snapshot → Rebalance → restore: the side's block moves like any other.
	before := guardSnapshot(t, g)
	if err := g.Rebalance(3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(guardSnapshot(t, g), before) {
		t.Error("the snapshot changed across Rebalance")
	}
	if got := liveSessions(g, slot); got != 21 {
		t.Errorf("%d sessions in slot %d after Rebalance, want 21", got, slot)
	}
	cfg.Shards = 4
	twin, err := newWithFactories(cfg, trioWithHits(t, slot))
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.RestoreFrom(statecodec.NewReader(before)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(guardSnapshot(t, twin), before) {
		t.Error("a guard restored from the snapshot writes different bytes")
	}
	if err := tripleGuard(t, 2).RestoreFrom(statecodec.NewReader(before)); err == nil {
		t.Error("the trio guard restored a snapshot holding a hits block")
	}

	// Sweep: a quarter of an hour later the idle clients' sessions are
	// evicted from the shard the next sweep slot falls on; only the one
	// still browsing stays.
	evicted := g.State().Evicted
	now = now.Add(15 * time.Minute)
	warmToSnapshot(t, h, client)
	st := g.State()
	if st.Evicted == evicted {
		t.Error("a sweep past the window evicted nothing")
	}
	swept := false
	for _, ss := range st.PerShard {
		swept = swept || side(ss.Detectors, ss.Sessions, hitsName) == 1
	}
	if !swept {
		t.Errorf("no shard swept down to the one live session in slot %d: %+v", slot, st.PerShard)
	}
}
