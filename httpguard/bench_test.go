package httpguard

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"divscrape/internal/mitigate"
	"divscrape/internal/workload"
)

// BenchmarkHTTPGuard measures the inline decision path — request
// conversion, both detectors, mitigation engine, response — with
// mitigation off (observe) and on (graduated). The workload is a
// pre-generated deterministic event mix replayed through the wrapped
// handler; tarpit sleeps are stubbed so the benchmark times the engine,
// not the stall it imposes.
func BenchmarkHTTPGuard(b *testing.B) {
	events := guardBenchEvents(b)
	observe := mitigate.Observe()
	grad := mitigate.Graduated()
	for _, cfg := range []struct {
		name   string
		policy *mitigate.Policy
	}{
		{"observe", &observe},
		{"graduated", &grad},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var now time.Time
			g, err := New(Config{
				Policy: cfg.policy,
				Now:    func() time.Time { return now },
				Sleep:  func(time.Duration) {},
			})
			if err != nil {
				b.Fatal(err)
			}
			h := g.Wrap(okHandler())
			// Requests are pre-built once; the loop measures the guard.
			reqs := make([]*benchRequest, len(events))
			for i := range events {
				e := &events[i].Entry
				r := httptest.NewRequest(e.Method, e.Path, nil)
				r.RemoteAddr = e.RemoteAddr + ":40000"
				r.Header.Set("User-Agent", e.UserAgent)
				reqs[i] = &benchRequest{r: r, at: e.Time}
			}
			// A single reusable writer keeps the harness out of the
			// measurement: allocs/op is the guard's own decision path.
			w := &nopResponseWriter{header: make(http.Header)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br := reqs[i%len(reqs)]
				now = br.at
				w.reset()
				h.ServeHTTP(w, br.r)
			}
			b.ReportMetric(float64(len(events)), "events")
		})
	}
}

// BenchmarkHTTPGuardTrajectory measures the same inline decision path
// with the semantic trajectory side enabled: the marginal cost of the
// third detector on every request, under the observe policy so the
// comparison against BenchmarkHTTPGuard/observe is detector-for-detector.
func BenchmarkHTTPGuardTrajectory(b *testing.B) {
	events := guardBenchEvents(b)
	observe := mitigate.Observe()
	var now time.Time
	g, err := New(Config{
		Policy:           &observe,
		EnableTrajectory: true,
		Now:              func() time.Time { return now },
		Sleep:            func(time.Duration) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	h := g.Wrap(okHandler())
	reqs := make([]*benchRequest, len(events))
	for i := range events {
		e := &events[i].Entry
		r := httptest.NewRequest(e.Method, e.Path, nil)
		r.RemoteAddr = e.RemoteAddr + ":40000"
		r.Header.Set("User-Agent", e.UserAgent)
		reqs[i] = &benchRequest{r: r, at: e.Time}
	}
	w := &nopResponseWriter{header: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := reqs[i%len(reqs)]
		now = br.at
		w.reset()
		h.ServeHTTP(w, br.r)
	}
	b.ReportMetric(float64(len(events)), "events")
}

// BenchmarkHTTPGuardShed measures the admission-control refusal path:
// the shard's in-flight gauge is pre-saturated, so every request sheds.
// This is the path that must stay cheap under overload — two atomic ops
// and the degraded-policy response, no shard lock, no detectors.
func BenchmarkHTTPGuardShed(b *testing.B) {
	var now time.Time
	g, err := New(Config{
		Shards:      1,
		MaxInFlight: 1,
		Now:         func() time.Time { return now },
		Sleep:       func(time.Duration) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	// A permanently claimed slot: the gate is full before the first
	// measured request arrives.
	g.shards[0].inflight.Store(1)
	h := g.Wrap(okHandler())
	r := httptest.NewRequest(http.MethodGet, "/product/1", nil)
	r.RemoteAddr = "198.51.100.7:40000"
	r.Header.Set("User-Agent", "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/63.0.3239.84 Safari/537.36")
	w := &nopResponseWriter{header: make(http.Header)}
	now = time.Date(2018, 3, 12, 10, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		h.ServeHTTP(w, r)
	}
	if g.shed.Load() == 0 {
		b.Fatal("gate never shed")
	}
}

type benchRequest struct {
	r  *http.Request
	at time.Time
}

// nopResponseWriter discards the response; headers are cleared per
// request without reallocating the map.
type nopResponseWriter struct {
	header http.Header
	status int
}

func (w *nopResponseWriter) Header() http.Header { return w.header }
func (w *nopResponseWriter) WriteHeader(code int) {
	w.status = code
}
func (w *nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopResponseWriter) reset() {
	clear(w.header)
	w.status = 0
}

var guardBench struct {
	once   sync.Once
	events []workload.Event
	err    error
}

func guardBenchEvents(b *testing.B) []workload.Event {
	b.Helper()
	guardBench.once.Do(func() {
		gen, err := workload.NewGenerator(workload.Config{
			Seed:     42,
			Duration: time.Hour,
			Profile: workload.Profile{
				HumanVisitors:       30,
				HumanSessionsPerDay: 6,
				NaiveScrapers:       1,
				NaiveRate:           1,
				NaiveDuty:           0.5,
				AggressiveScrapers:  1,
				AggressiveRate:      4,
				AggressiveDuty:      0.3,
				StealthBots:         4,
				StealthSessionGap:   20 * time.Minute,
			},
		})
		if err != nil {
			guardBench.err = err
			return
		}
		guardBench.events, guardBench.err = gen.Generate()
	})
	if guardBench.err != nil {
		b.Fatal(guardBench.err)
	}
	if len(guardBench.events) == 0 {
		b.Fatal("no bench events")
	}
	return guardBench.events
}
