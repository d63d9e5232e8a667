package httpguard

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"divscrape/internal/mitigate"
)

// driveTraffic pushes a mixed population through a guard and returns it.
func driveTraffic(t *testing.T, cfg Config, n int) *Guard {
	t.Helper()
	var now time.Time
	cfg.Now = func() time.Time { return now }
	cfg.Sleep = func(time.Duration) {}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	base := time.Date(2018, 3, 11, 6, 0, 0, 0, time.UTC)
	clients := []struct{ addr, ua string }{
		{"10.1.2.3:40000", "Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0"},
		{"172.16.4.4:40000", "python-requests/2.18.4"},
		{"192.168.96.9:40000", "Scrapy/1.5.0 (+https://scrapy.org)"},
	}
	for i := 0; i < n; i++ {
		now = base.Add(time.Duration(i) * time.Second)
		c := clients[i%len(clients)]
		r := httptest.NewRequest(http.MethodGet, "/product/17", nil)
		r.RemoteAddr = c.addr
		r.Header.Set("User-Agent", c.ua)
		h.ServeHTTP(httptest.NewRecorder(), r)
	}
	return g
}

func TestDebugMetricsEndpoint(t *testing.T) {
	g := driveTraffic(t, Config{Policy: policyPtr(), Shards: 2}, 90)
	srv := httptest.NewServer(g.DebugHandler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + DebugMetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	body := bodyOf(t, res)
	for _, want := range []string{
		"divscrape_guard_requests_total 90",
		"# TYPE divscrape_guard_actions_total counter",
		`divscrape_guard_actions_total{action="allow"}`,
		`divscrape_guard_detector_clients{detector="sentinel"}`,
		`divscrape_guard_detector_clients{detector="arcane"}`,
		"divscrape_guard_shards 2",
		"divscrape_guard_request_seconds_count 90",
		"divscrape_guard_alerted_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q:\n%s", want, body)
		}
	}

	// JSON format of the same registry.
	res, err = srv.Client().Get(srv.URL + DebugMetricsPath + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(bodyOf(t, res)), &m); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	if v, ok := m["divscrape_guard_requests_total"]; !ok || v.(float64) != 90 {
		t.Errorf("json requests_total = %v", v)
	}
}

func TestDebugStateEndpoint(t *testing.T) {
	g := driveTraffic(t, Config{Policy: policyPtr(), Shards: 3}, 60)
	srv := httptest.NewServer(g.DebugHandler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + DebugStatePath)
	if err != nil {
		t.Fatal(err)
	}
	// The per-shard documents are written, not read back: the test reads
	// the keys it checks itself.
	var st struct {
		State
		PerShard []struct {
			Total           uint64 `json:"total"`
			SentinelClients int    `json:"sentinel_clients"`
		} `json:"per_shard"`
	}
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if st.Policy != "graduated" {
		t.Errorf("policy = %q", st.Policy)
	}
	if st.Shards != 3 || len(st.PerShard) != 3 {
		t.Errorf("shards = %d, per-shard entries = %d", st.Shards, len(st.PerShard))
	}
	if st.Totals.Total != 60 {
		t.Errorf("totals = %d", st.Totals.Total)
	}
	var perShardTotal uint64
	clients := 0
	for _, s := range st.PerShard {
		perShardTotal += s.Total
		clients += s.SentinelClients
	}
	if perShardTotal != 60 {
		t.Errorf("per-shard totals sum to %d", perShardTotal)
	}
	if clients == 0 {
		t.Error("no live detector clients reported")
	}
	if !st.ChallengesHosted {
		t.Error("graduated guard does not report hosted challenges")
	}
	if st.EvictWindow <= 0 {
		t.Errorf("evict window = %v, want defaulted positive", st.EvictWindow)
	}
}

// The guard's metrics sweep the shard windows; with an aggressive window
// and traffic that goes quiet, the periodic sweep path must run and be
// visible in the counters. sweepEvery is 4096 per shard, so exercise it
// directly via the shard internals rather than 4096 requests.
func TestGuardWindowSweepEvicts(t *testing.T) {
	var now time.Time
	g, err := New(Config{
		Policy:      policyPtr(),
		Shards:      1,
		EvictWindow: 10 * time.Minute,
		Now:         func() time.Time { return now },
		Sleep:       func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	base := time.Date(2018, 3, 11, 6, 0, 0, 0, time.UTC)
	serve := func(addr string, at time.Time) {
		now = at
		r := httptest.NewRequest(http.MethodGet, "/product/1", nil)
		r.RemoteAddr = addr
		r.Header.Set("User-Agent", "python-requests/2.18.4")
		h.ServeHTTP(httptest.NewRecorder(), r)
	}
	serve("10.1.1.1:1", base)
	serve("10.1.1.2:1", base.Add(time.Second))
	// One hour later a fresh client arrives; the old two are outside the
	// 10-minute window. Force the sweep slot by aligning the counter.
	g.mu.RLock()
	s := g.shards[0]
	g.mu.RUnlock()
	s.counts[cTotal].Store(sweepEvery - 1) // next request draws the sweep ticket
	serve("10.1.1.3:1", base.Add(time.Hour))
	if got := g.evicted.Load(); got == 0 {
		t.Error("window sweep evicted nothing")
	}
	if g.sweeps.Load() == 0 {
		t.Error("sweep counter not advanced")
	}
	st := g.State()
	if n := side(st.PerShard[0].Detectors, st.PerShard[0].Sessions, "sentinel"); n != 1 {
		t.Errorf("sentinel clients after sweep = %d, want 1", n)
	}
}

func policyPtr() *mitigate.Policy {
	p := mitigate.Graduated()
	return &p
}

func bodyOf(t *testing.T, res *http.Response) string {
	t.Helper()
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
