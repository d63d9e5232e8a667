package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"divscrape/httpguard"
	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
	"divscrape/internal/sitemodel"
	"divscrape/internal/trace"
	"divscrape/internal/workload"
)

// readTraceRecords decodes a -trace-out JSONL file.
func readTraceRecords(t *testing.T, path string) []trace.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []trace.Record
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r trace.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d not a flight record: %v\n%s", len(recs)+1, err, sc.Text())
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// -trace-out streams every captured flight record as JSON lines, in
// capture order, with per-detector verdicts attached.
func TestRunTraceOut(t *testing.T) {
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	tracePath := filepath.Join(dir, "flight.jsonl")

	var sb strings.Builder
	if err := run(&sb, []string{"-log", logPath, "-trace-out", tracePath}); err != nil {
		t.Fatal(err)
	}
	// The recorder modes default to the sequential pipeline so feature
	// snapshots stay coherent.
	if !strings.Contains(sb.String(), "mode=seq") {
		t.Errorf("-trace-out did not default to sequential:\n%s", firstLine(sb.String()))
	}

	recs := readTraceRecords(t, tracePath)
	if len(recs) == 0 {
		t.Fatal("no flight records written")
	}
	var sawFeatures bool
	for i, r := range recs {
		if r.Sampled == "" {
			t.Fatalf("record %d written without a sampling reason: %+v", i, r)
		}
		if len(r.Detectors) != 2 {
			t.Fatalf("record %d carries %d detector records, want 2: %+v", i, len(r.Detectors), r)
		}
		if r.Client == "" || r.Time.IsZero() {
			t.Fatalf("record %d missing identity: %+v", i, r)
		}
		if i > 0 && r.Seq <= recs[i-1].Seq {
			t.Fatalf("records out of capture order: seq %d after %d", r.Seq, recs[i-1].Seq)
		}
		for _, dr := range r.Detectors {
			if len(dr.Features) > 0 {
				sawFeatures = true
			}
		}
	}
	if !sawFeatures {
		t.Error("no sequential flight record carries a feature snapshot")
	}
}

// -explain always captures the named client and prints its provenance
// timeline — per-detector verdicts, features and rung transitions —
// after the report tables.
func TestRunExplain(t *testing.T) {
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	tracePath := filepath.Join(dir, "flight.jsonl")

	// Use the flight recorder itself to pick a client that alerted, so
	// the explain run has a story to tell.
	var sb strings.Builder
	if err := run(&sb, []string{"-log", logPath, "-trace-out", tracePath}); err != nil {
		t.Fatal(err)
	}
	client := ""
	for _, r := range readTraceRecords(t, tracePath) {
		if r.Alerted {
			client = r.Client
			break
		}
	}
	if client == "" {
		t.Fatal("dataset produced no alerted flight record to explain")
	}

	sb.Reset()
	if err := run(&sb, []string{"-log", logPath, "-mitigate", "graduated", "-explain", client}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "provenance for "+client+":") {
		t.Fatalf("explain timeline missing from output:\n%s", out)
	}
	tail := out[strings.Index(out, "provenance for "):]
	for _, want := range []string{"alerted=", "sentinel", "arcane", "features:", "action="} {
		if !strings.Contains(tail, want) {
			t.Errorf("explain timeline missing %q:\n%s", want, tail)
		}
	}
	// The report tables still precede the timeline.
	if !strings.Contains(out, "Alert diversity") {
		t.Error("detection tables missing from explain run")
	}
}

// The guard's shards and the CLI's pipeline run one decision step
// (shard.Shard.Judge), so the same
// traffic judged by the same three detectors under the same ladder must
// leave the same records in both — and a request two of the three alert on
// is confirmed in both, where the CLI used to demand all three.
func TestFlightRecordsEqualTheGuards(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{Seed: 9, Duration: 6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	events, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Both sides must see one stream. The guard judges before the response
	// exists — status 200, no size, no authenticated user — so the log says
	// the same; and it is read back, so the guard's clock is the parsed
	// timestamps the CLI sees.
	dir := t.TempDir()
	logPath, tracePath := filepath.Join(dir, "access.log"), filepath.Join(dir, "flight.jsonl")
	var log bytes.Buffer
	lw := logfmt.NewWriter(&log)
	// Two of the beacons are respelt: behind a query string one is still a
	// beacon to both sides; percent-encoded the other is a beacon to neither
	// (the guard used to decode it and pass the challenge on its own).
	respelt := []string{sitemodel.ChallengeVerifyPath + "?x=1", "/__verif%79"}
	for i := range events {
		e := events[i].Entry
		if e.Path == sitemodel.ChallengeVerifyPath && len(respelt) > 0 {
			e.Path, respelt = respelt[0], respelt[1:]
		}
		e.Status, e.Bytes, e.AuthUser = http.StatusOK, 0, "-"
		if err := lw.Write(&e); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var entries []logfmt.Entry
	for lr := logfmt.NewReader(&log, logfmt.ReaderConfig{}); ; {
		e, err := lr.Next()
		if err != nil {
			break
		}
		e.Path, e.Referer = strings.Clone(e.Path), strings.Clone(e.Referer)
		entries = append(entries, e)
	}
	if len(entries) != len(events) {
		t.Fatalf("read back %d of %d lines", len(entries), len(events))
	}

	var sb strings.Builder
	if err := run(&sb, []string{"-log", logPath, "-detectors", "sentinel,arcane,trajectory",
		"-mode", "seq", "-mitigate", "graduated", "-trace-out", tracePath}); err != nil {
		t.Fatal(err)
	}
	cli := readTraceRecords(t, tracePath)

	var guard []trace.Record
	policy := mitigate.Graduated()
	next := 0
	g, err := httpguard.New(httpguard.Config{
		Policy:           &policy,
		EnableTrajectory: true,
		Shards:           3,
		Now:              func() time.Time { return entries[min(next, len(entries)-1)].Time },
		Sleep:            func(time.Duration) {},
		Trace:            &trace.RecorderConfig{Sink: func(r trace.Record) { guard = append(guard, r) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := g.Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	for i := range entries {
		e := &entries[i]
		next = i
		req := httptest.NewRequest(e.Method, e.Path, nil)
		req.RemoteAddr = e.RemoteAddr + ":40000"
		req.Header.Set("User-Agent", e.UserAgent)
		if e.Referer != "-" {
			req.Header.Set("Referer", e.Referer)
		}
		h.ServeHTTP(httptest.NewRecorder(), req)
	}

	if len(guard) != len(cli) {
		t.Fatalf("the guard captured %d records, the CLI %d", len(guard), len(cli))
	}
	passed := regexp.MustCompile(`Challenges passed\s+(\d+)`).FindStringSubmatch(sb.String())
	if want := strconv.FormatUint(g.StatsDetail().ChallengesPassed, 10); len(respelt) > 0 || passed == nil || passed[1] != want || want == "0" {
		t.Errorf("the replay passed %v challenges, the guard %s (beacons left to respell: %d)", passed, want, len(respelt))
	}
	twoOfThree := 0
	for i := range cli {
		votes := 0
		for _, dr := range cli[i].Detectors {
			if dr.Alert {
				votes++
			}
		}
		if votes == 2 {
			twoOfThree++
			if !cli[i].Confirmed || !guard[i].Confirmed {
				t.Fatalf("record %d (seq %d): two of three alert, confirmed cli=%v guard=%v",
					i, cli[i].Seq, cli[i].Confirmed, guard[i].Confirmed)
			}
		}
		want, _ := json.Marshal(guard[i])
		got, _ := json.Marshal(cli[i])
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d differs:\ncli   %s\nguard %s", i, got, want)
		}
	}
	if twoOfThree == 0 {
		t.Error("no captured record has exactly two alerting detectors")
	}
}
