package httpguard

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"divscrape/internal/faultinject"
	"divscrape/internal/trace"
)

// tracedGuard builds a guard with the provenance plane armed and a
// deterministic clock, and drives one blatant scraper up the graduated
// ladder to Block.
func tracedGuard(t *testing.T, rec trace.RecorderConfig) (*Guard, http.Handler, string) {
	t.Helper()
	clock := newFakeClock()
	g := newGuard(t, Config{
		Policy: graduated(),
		Now:    func() time.Time { return clock.tick(time.Second) },
		Sleep:  func(time.Duration) {},
		Trace:  &rec,
	})
	h := g.Wrap(okHandler())
	const ip = "172.16.0.9"
	blocked := false
	for i := 0; i < 60; i++ {
		if do(t, h, ip, toolUA, "/api/price/"+strconv.Itoa(i)).Code == http.StatusForbidden {
			blocked = true
		}
	}
	if !blocked {
		t.Fatal("scraper never reached Block")
	}
	return g, h, ip
}

// The acceptance walk: a replayed scraper is driven to Block, and the
// explain endpoint returns the full provenance — per-detector verdicts,
// feature values and the rung transitions that led there.
func TestExplainEndpointShowsBlockProvenance(t *testing.T) {
	g, _, ip := tracedGuard(t, trace.RecorderConfig{})

	srv := httptest.NewServer(g.DebugHandler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + DebugExplainPath + "?client=" + ip)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var tl trace.Timeline
	if err := json.NewDecoder(res.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	if tl.Client != ip || len(tl.Records) == 0 {
		t.Fatalf("timeline empty: %+v", tl)
	}

	var sawEscalation, sawBlock, sawFeatures bool
	for _, r := range tl.Records {
		if len(r.Detectors) != 2 {
			t.Fatalf("record %d carries %d detector records, want 2", r.Seq, len(r.Detectors))
		}
		for _, dr := range r.Detectors {
			if dr.Detector != "sentinel" && dr.Detector != "arcane" {
				t.Fatalf("unexpected detector %q", dr.Detector)
			}
			if len(dr.Features) > 0 {
				sawFeatures = true
				for _, f := range dr.Features {
					if f.Name == "" {
						t.Fatalf("unnamed feature in %+v", dr)
					}
				}
			}
		}
		if r.Sampled == "escalation" {
			sawEscalation = true
			if r.RungBefore == r.RungAfter {
				t.Errorf("escalation record without a rung transition: %+v", r)
			}
		}
		if r.RungAfter == "block" {
			sawBlock = true
		}
	}
	if !sawEscalation {
		t.Error("no escalation was captured (escalations must always be sampled)")
	}
	if !sawBlock {
		t.Error("no record shows the block rung")
	}
	if !sawFeatures {
		t.Error("no record carries a feature snapshot")
	}

	// Escalation capture is unconditional: every rung increase of the
	// ladder walk must be on record even though head/rate sampling was
	// left at defaults.
	if res, err = srv.Client().Get(srv.URL + DebugExplainPath); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("explain without client answered %d, want 400", res.StatusCode)
	}
}

func TestTraceEndpointFilters(t *testing.T) {
	g, _, ip := tracedGuard(t, trace.RecorderConfig{})

	srv := httptest.NewServer(g.DebugHandler())
	defer srv.Close()
	get := func(query string) trace.TraceResponse {
		t.Helper()
		res, err := srv.Client().Get(srv.URL + DebugTracePath + query)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var doc trace.TraceResponse
		if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	all := get("")
	if all.Stats.Seen == 0 || all.Stats.Captured == 0 || len(all.Records) == 0 {
		t.Fatalf("trace endpoint empty: %+v", all.Stats)
	}
	for _, r := range get("?action=block&client=" + ip).Records {
		if r.Action != "block" || r.Client != ip {
			t.Errorf("filtered record leaked through: %+v", r)
		}
	}
	if got := get("?limit=1"); len(got.Records) != 1 {
		t.Errorf("limit=1 returned %d records", len(got.Records))
	}
}

// A quarantine while tracing lands in the provenance event ring, so the
// explain timeline shows why a client's verdicts degraded.
func TestQuarantineEventsOnTimeline(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	clock := newFakeClock()
	g := newGuard(t, Config{
		Policy: graduated(),
		Now:    func() time.Time { return clock.tick(time.Second) },
		Sleep:  func(time.Duration) {},
		Trace:  &trace.RecorderConfig{},
	})
	h := g.Wrap(okHandler())
	faultinject.Enable("shard.inspect.sentinel", faultinject.Fault{Panic: "injected detector bug", Times: 1})
	const ip = "10.1.2.3"
	for i := 0; i < 40; i++ {
		do(t, h, ip, toolUA, "/api/item/"+strconv.Itoa(i))
	}
	tl := g.FlightRecorder().Explain(ip)
	var sawQuarantine, sawRestore bool
	for _, ev := range tl.Events {
		switch ev.Kind {
		case "quarantine":
			sawQuarantine = true
			if ev.Detector != "sentinel" || ev.Detail == "" {
				t.Errorf("quarantine event incomplete: %+v", ev)
			}
		case "restore":
			sawRestore = true
		}
	}
	if !sawQuarantine || !sawRestore {
		t.Errorf("timeline events missing quarantine=%v restore=%v: %+v",
			sawQuarantine, sawRestore, tl.Events)
	}
}

// Stage histograms from the guard's decide path land on the same
// metrics page DebugHandler already serves.
func TestGuardStageHistogramsOnMetricsPage(t *testing.T) {
	g, _, _ := tracedGuard(t, trace.RecorderConfig{})
	srv := httptest.NewServer(g.DebugHandler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + DebugMetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`divscrape_stage_seconds_count{stage="enrich"}`,
		`divscrape_stage_seconds_count{detector="sentinel",stage="detect"}`,
		`divscrape_stage_seconds_count{detector="arcane",stage="detect"}`,
		`divscrape_stage_seconds_count{stage="ensemble"}`,
		"divscrape_trace_decisions_total",
		"divscrape_trace_records_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

// Tracing disabled is the default: no tracer, no recorder, and the
// trace endpoints answer 404 so probes can detect the feature.
func TestTracingDisabledByDefault(t *testing.T) {
	clock := newFakeClock()
	g := newGuard(t, Config{Now: clock.Now})
	if g.Tracer() != nil || g.FlightRecorder() != nil {
		t.Fatal("tracing enabled without Config.Trace")
	}
	srv := httptest.NewServer(g.DebugHandler())
	defer srv.Close()
	for _, path := range []string{DebugTracePath, DebugExplainPath + "?client=x"} {
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusNotFound {
			t.Errorf("%s answered %d with tracing disabled, want 404", path, res.StatusCode)
		}
	}
}

// pprof is opt-in: absent by default, mounted behind EnablePprof.
func TestPprofOptIn(t *testing.T) {
	clock := newFakeClock()
	probe := func(g *Guard) int {
		srv := httptest.NewServer(g.DebugHandler())
		defer srv.Close()
		res, err := srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		return res.StatusCode
	}
	if code := probe(newGuard(t, Config{Now: clock.Now})); code != http.StatusNotFound {
		t.Errorf("pprof served without EnablePprof: %d", code)
	}
	if code := probe(newGuard(t, Config{Now: clock.Now, EnablePprof: true})); code != http.StatusOK {
		t.Errorf("pprof absent with EnablePprof: %d", code)
	}
}
