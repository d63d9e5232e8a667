package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// promPage is the registry's Prometheus text page as a scrape reads it.
func promPage(r *Registry) string {
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	return b.String()
}

// jsonPage is the registry's JSON page as a scrape reads it.
func jsonPage(r *Registry) []byte {
	var b bytes.Buffer
	_ = r.WriteJSON(&b)
	return b.Bytes()
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("requests_total", "Requests seen.")
	g := r.MustGauge("live_sessions", "Live sessions.")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}

	out := promPage(r)
	for _, want := range []string{
		"# HELP requests_total Requests seen.",
		"# TYPE requests_total counter",
		"requests_total 5",
		"# TYPE live_sessions gauge",
		"live_sessions 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelsAndFuncInstruments(t *testing.T) {
	r := NewRegistry()
	blocked := r.MustCounter("actions_total", "Actions taken.", Label{Key: "action", Value: "block"})
	allowed := r.MustCounter("actions_total", "Actions taken.", Label{Key: "action", Value: "allow"})
	var live int64 = 42
	r.MustGaugeFunc("engine_clients", "Clients holding state.", func() int64 { return live })
	r.MustCounterFunc("sweeps_total", "Sweeps run.", func() uint64 { return 3 })

	blocked.Add(2)
	allowed.Add(9)
	out := promPage(r)
	for _, want := range []string{
		`actions_total{action="block"} 2`,
		`actions_total{action="allow"} 9`,
		"engine_clients 42",
		"sweeps_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One family header for the two labelled series.
	if n := strings.Count(out, "# TYPE actions_total counter"); n != 1 {
		t.Errorf("actions_total TYPE header appears %d times, want 1", n)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.MustHistogram("latency_seconds", "Request latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 5.555; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", got, want)
	}
	out := promPage(r)
	for _, want := range []string{
		`latency_seconds_bucket{le="0.01"} 1`,
		`latency_seconds_bucket{le="0.1"} 2`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="+Inf"} 4`,
		"latency_seconds_sum 5.555",
		"latency_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	r := NewRegistry()
	h := r.MustHistogram("h", "", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive, Prometheus semantics
	out := promPage(r)
	if !strings.Contains(out, `h_bucket{le="1"} 1`) {
		t.Errorf("boundary observation not in inclusive bucket:\n%s", out)
	}
}

func TestJSONEncodingIsValid(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("reqs", "", Label{Key: "mode", Value: `sh"ard`})
	c.Add(11)
	h := r.MustHistogram("lat", "", []float64{0.5})
	h.Observe(0.25)
	h.Observe(2)

	raw := jsonPage(r)
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("invalid JSON %s: %v", raw, err)
	}
	if v, ok := m[`reqs{mode="sh\"ard"}`]; !ok || v.(float64) != 11 {
		t.Errorf("labelled counter missing or wrong: %v (json: %s)", m, raw)
	}
	hist, ok := m["lat"].(map[string]any)
	if !ok {
		t.Fatalf("histogram missing: %s", raw)
	}
	if hist["count"].(float64) != 2 {
		t.Errorf("histogram count = %v", hist["count"])
	}
}

func TestHandlerServesBothFormats(t *testing.T) {
	r := NewRegistry()
	r.MustCounter("up", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, res)
	if !strings.Contains(body, "up 1") {
		t.Errorf("prometheus body missing sample: %s", body)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}

	res, err = srv.Client().Get(srv.URL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, res)
	if !strings.Contains(body, `"up":1`) {
		t.Errorf("json body missing sample: %s", body)
	}
}

func readAll(t *testing.T, res *http.Response) string {
	t.Helper()
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestMustPanicsOnBadRegistration(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"invalid name", func(r *Registry) { r.MustCounter("9bad", "") }},
		{"invalid label", func(r *Registry) { r.MustCounter("ok", "", Label{Key: "0x", Value: "v"}) }},
		{"duplicate", func(r *Registry) { r.MustCounter("dup", ""); r.MustCounter("dup", "") }},
		{"kind clash", func(r *Registry) {
			r.MustCounter("clash", "", Label{Key: "a", Value: "1"})
			r.MustGauge("clash", "", Label{Key: "a", Value: "2"})
		}},
		{"empty histogram", func(r *Registry) { r.MustHistogram("h", "", nil) }},
		{"unsorted bounds", func(r *Registry) { r.MustHistogram("h", "", []float64{2, 1}) }},
		{"nil func", func(r *Registry) { r.MustGaugeFunc("g", "", nil) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		}()
	}
}

func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("c", "")
	h := r.MustHistogram("h", "", []float64{1, 10})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 20))
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = r.WritePrometheus(io.Discard)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 4000 {
		t.Errorf("counter = %d, want 4000", c.Value())
	}
	if h.Count() != 4000 {
		t.Errorf("histogram count = %d, want 4000", h.Count())
	}
}

// The scrape path must not become a garbage source on a long-lived guard:
// once the reused buffer has grown, encoding a registry representative of
// the live guard's (labelled counters, func gauges, a histogram) performs
// zero allocations in both formats, and the instrument update path none
// either.
func TestEncoderZeroAllocs(t *testing.T) {
	r := NewRegistry()
	for _, a := range []string{"allow", "tarpit", "challenge", "block"} {
		r.MustCounter("guard_actions_total", "Actions.", Label{Key: "action", Value: a}).Add(3)
	}
	r.MustGaugeFunc("guard_shards", "Shards.", func() int64 { return 8 })
	h := r.MustHistogram("guard_latency_seconds", "Latency.",
		[]float64{0.001, 0.01, 0.1, 1})
	h.Observe(0.004)

	_ = r.WritePrometheus(io.Discard) // grow the buffer once
	if allocs := testing.AllocsPerRun(200, func() {
		_ = r.WritePrometheus(io.Discard)
	}); allocs != 0 {
		t.Errorf("WritePrometheus allocates %.1f/op, want 0", allocs)
	}
	_ = r.WriteJSON(io.Discard)
	if allocs := testing.AllocsPerRun(200, func() {
		_ = r.WriteJSON(io.Discard)
	}); allocs != 0 {
		t.Errorf("WriteJSON allocates %.1f/op, want 0", allocs)
	}
	c := r.MustCounter("hot", "")
	if allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		h.Observe(0.02)
	}); allocs != 0 {
		t.Errorf("update path allocates %.1f/op, want 0", allocs)
	}
}
