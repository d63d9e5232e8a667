package main

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"divscrape/internal/iprep"
	"divscrape/internal/pipeline"
	"divscrape/internal/sentinel"

	"divscrape/internal/detector"
)

func TestLiveMetricsHandler(t *testing.T) {
	pipe, err := pipeline.New(pipeline.Config{
		Factories:  []detector.Factory{func() (detector.Detector, error) { return sentinel.New(sentinel.Config{}) }},
		Reputation: iprep.BuildFeed(),
	})
	if err != nil {
		t.Fatal(err)
	}
	live := newLiveMetrics(nil, pipe, nil)
	live.events.Add(7)
	live.alerts[0].Add(2)
	h := live.handler("seq", 1, false, 2*time.Hour)

	srv := httptest.NewServer(h)
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/debug/divscrape/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := bodyString(t, res.Body)
	res.Body.Close()
	for _, want := range []string{
		"divscrape_events_total 7",
		`divscrape_alerts_total{detector="sentinel"} 2`,
		"divscrape_evicted_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	res, err = srv.Client().Get(srv.URL + "/debug/divscrape/state")
	if err != nil {
		t.Fatal(err)
	}
	var st liveState
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if st.Mode != "seq" || st.Events != 7 || st.Follow {
		t.Errorf("state = %+v", st)
	}
	if st.EvictWindow != 2*time.Hour {
		t.Errorf("state window = %v", st.EvictWindow)
	}
}

// The -metrics-addr flag stands a real listener up for the duration of a
// run and tears it down afterwards; a loopback ephemeral port keeps the
// test hermetic.
func TestRunWithMetricsAddr(t *testing.T) {
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	lines := countLines(t, logPath)
	var sb strings.Builder
	err := run(&sb, []string{
		"-follow", "-log", logPath, "-parallel", "0",
		"-max-events", strconv.Itoa(lines),
		"-metrics-addr", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(&sb, []string{"-log", logPath, "-metrics-addr", "256.0.0.1:http"}); err == nil {
		t.Error("invalid -metrics-addr accepted")
	}
}

func bodyString(t *testing.T, r interface{ Read([]byte) (int, error) }) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
