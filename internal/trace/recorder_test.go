package trace

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/mitigate"
)

func rec(seq uint64, client, sampled, action string) Record {
	return Record{
		Seq:     seq,
		Time:    time.Unix(int64(seq), 0).UTC(),
		Client:  client,
		Sampled: sampled,
		Action:  action,
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Sample() != SampleNone {
		t.Error("nil recorder sampled")
	}
	if r.WantClient("a") {
		t.Error("nil recorder wants a client")
	}
	r.Add(rec(1, "a", "rate", ""))
	r.AddEvent(Event{Kind: "quarantine"})
	if got := r.Recent(10, "", ""); got != nil {
		t.Errorf("nil recorder Recent = %v", got)
	}
	if tl := r.Explain("a"); len(tl.Records) != 0 || len(tl.Events) != 0 {
		t.Errorf("nil recorder Explain = %+v", tl)
	}
	if r.Stats() != (RecorderStats{}) {
		t.Errorf("nil recorder Stats = %+v", r.Stats())
	}
}

// Sampling is a deterministic counter — head for the first Head
// decisions, then every Rate-th — so identical streams capture
// identical records.
func TestSampleDeterminism(t *testing.T) {
	r := newRecorder(RecorderConfig{Head: 3, Rate: 5})
	var got []SampleKind
	for i := 0; i < 12; i++ {
		got = append(got, r.Sample())
	}
	want := []SampleKind{
		SampleHead, SampleHead, SampleHead, // n = 1..3
		SampleNone, SampleRate, // n = 4, 5
		SampleNone, SampleNone, SampleNone, SampleNone, SampleRate, // 6..10
		SampleNone, SampleNone,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("decision %d sampled %v, want %v", i+1, got[i], want[i])
		}
	}
}

func TestSampleDisabled(t *testing.T) {
	r := newRecorder(RecorderConfig{Head: -1, Rate: -1})
	for i := 0; i < 1000; i++ {
		if k := r.Sample(); k != SampleNone {
			t.Fatalf("decision %d sampled %v with sampling disabled", i+1, k)
		}
	}
	if r.Stats().Seen != 1000 {
		t.Errorf("Seen = %d, want 1000", r.Stats().Seen)
	}
}

func TestHeadPreservedRingOverwrites(t *testing.T) {
	r := newRecorder(RecorderConfig{Head: 2, Rate: 1, Capacity: 3})
	r.Add(rec(0, "h0", "head", ""))
	r.Add(rec(1, "h1", "head", ""))
	for seq := uint64(2); seq < 10; seq++ {
		r.Add(rec(seq, "c"+strconv.FormatUint(seq, 10), "rate", ""))
	}
	st := r.Stats()
	if st.Captured != 10 {
		t.Errorf("Captured = %d, want 10", st.Captured)
	}
	if st.Overwritten != 5 { // 8 ring adds into capacity 3
		t.Errorf("Overwritten = %d, want 5", st.Overwritten)
	}
	if st.Held != 5 { // 2 head + 3 ring
		t.Errorf("Held = %d, want 5", st.Held)
	}
	got := r.Recent(0, "", "")
	var seqs []uint64
	for _, rr := range got {
		seqs = append(seqs, rr.Seq)
	}
	// Newest first: the surviving ring tail, then the preserved head.
	want := []uint64{9, 8, 7, 1, 0}
	if len(seqs) != len(want) {
		t.Fatalf("Recent seqs = %v, want %v", seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("Recent seqs = %v, want %v", seqs, want)
		}
	}
}

func TestRecentFilters(t *testing.T) {
	r := newRecorder(RecorderConfig{Head: -1, Rate: 1})
	r.Add(rec(0, "alice", "rate", "allow"))
	r.Add(rec(1, "bob", "rate", "block"))
	r.Add(rec(2, "alice", "rate", "block"))

	if got := r.Recent(0, "alice", ""); len(got) != 2 {
		t.Errorf("client filter returned %d records, want 2", len(got))
	}
	if got := r.Recent(0, "", "block"); len(got) != 2 {
		t.Errorf("action filter returned %d records, want 2", len(got))
	}
	got := r.Recent(0, "alice", "block")
	if len(got) != 1 || got[0].Seq != 2 {
		t.Errorf("combined filter = %+v", got)
	}
	if got := r.Recent(1, "", ""); len(got) != 1 || got[0].Seq != 2 {
		t.Errorf("limit=1 = %+v", got)
	}
}

func TestAddDropsUnsampledRecords(t *testing.T) {
	r := newRecorder(RecorderConfig{})
	r.Add(Record{Seq: 1, Client: "a"}) // Sampled empty: dropped
	if st := r.Stats(); st.Captured != 0 || st.Held != 0 {
		t.Errorf("unsampled record stored: %+v", st)
	}
}

func TestSinkReceivesCaptureOrder(t *testing.T) {
	var seen []uint64
	r := newRecorder(RecorderConfig{
		Head: -1, Rate: 1, Capacity: 2,
		Sink: func(rec Record) { seen = append(seen, rec.Seq) },
	})
	for seq := uint64(0); seq < 5; seq++ {
		r.Add(rec(seq, "c", "rate", ""))
	}
	if len(seen) != 5 {
		t.Fatalf("sink saw %d records, want 5", len(seen))
	}
	for i, seq := range seen {
		if seq != uint64(i) {
			t.Fatalf("sink order = %v", seen)
		}
	}
}

func TestEventRingBounded(t *testing.T) {
	r := newRecorder(RecorderConfig{Events: 3})
	for i := 0; i < 5; i++ {
		r.AddEvent(Event{Time: time.Unix(int64(i), 0), Kind: "quarantine", Shard: i})
	}
	if r.Stats().Events != 5 {
		t.Errorf("Events = %d, want 5", r.Stats().Events)
	}
	tl := r.Explain("anyone")
	if len(tl.Events) != 3 {
		t.Fatalf("held %d events, want 3", len(tl.Events))
	}
	// Oldest two overwritten; survivors in order 2, 3, 4.
	for i, ev := range tl.Events {
		if ev.Shard != i+2 {
			t.Errorf("event %d shard = %d, want %d", i, ev.Shard, i+2)
		}
	}
}

func TestExplainTimeline(t *testing.T) {
	r := newRecorder(RecorderConfig{Head: 1, Rate: 1})
	r.Add(rec(0, "alice", "head", ""))
	r.Add(rec(1, "bob", "rate", ""))
	r.Add(rec(2, "alice", "rate", "block"))
	r.AddEvent(Event{Time: time.Unix(5, 0), Kind: "quarantine", Detector: "sentinel"})
	r.AddEvent(Event{Time: time.Unix(6, 0), Client: "bob", Kind: "note"})

	tl := r.Explain("alice")
	if tl.Client != "alice" {
		t.Errorf("timeline client = %q", tl.Client)
	}
	if len(tl.Records) != 2 || tl.Records[0].Seq != 0 || tl.Records[1].Seq != 2 {
		t.Errorf("timeline records = %+v", tl.Records)
	}
	// System-wide events (no client) frame every timeline; another
	// client's events do not.
	if len(tl.Events) != 1 || tl.Events[0].Kind != "quarantine" {
		t.Errorf("timeline events = %+v", tl.Events)
	}
}

func TestDetectorRecordOf(t *testing.T) {
	v := detector.Verdict{Alert: true, Score: 0.9}
	dr := DetectorRecordOf("sentinel", &v, nil)
	if dr.Detector != "sentinel" || !dr.Alert || dr.Score != 0.9 || dr.Features != nil {
		t.Errorf("record = %+v", dr)
	}
	ex := fakeExplainer{names: []string{"a", "b"}, vals: []float64{1, 2}, ok: true}
	dr = DetectorRecordOf("sentinel", &v, ex)
	if len(dr.Features) != 2 || dr.Features[1] != (Feature{Name: "b", Value: 2}) {
		t.Errorf("features = %+v", dr.Features)
	}
	// A short-circuited request (ok=false) yields no snapshot.
	ex.ok = false
	if dr = DetectorRecordOf("sentinel", &v, ex); dr.Features != nil {
		t.Errorf("short-circuited features = %+v", dr.Features)
	}
}

// explaining is a detector.Detector whose only behaviour is its Explainer.
type explaining struct {
	detector.Detector
	fakeExplainer
}

func TestCapture(t *testing.T) {
	req := &detector.Request{Seq: 7}
	req.Entry.RemoteAddr, req.Entry.Time = "alice", time.Unix(9, 0)
	names := []string{"a", "b", "c"}
	dets := []detector.Detector{
		explaining{fakeExplainer: fakeExplainer{names: []string{"f"}, vals: []float64{1}, ok: true}},
		nil, // no Explainer behind this slot
		explaining{fakeExplainer: fakeExplainer{names: []string{"g"}, vals: []float64{2}, ok: true}},
	}
	twoOfThree := []detector.Verdict{{Alert: true, Score: 0.9}, {Score: 0.3}, {Alert: true, Score: 0.6}}
	climbed := mitigate.Decision{Action: mitigate.Tarpit, Level: mitigate.Tarpit, Score: 1.5}

	// Nothing selects it: sampling off, rung unchanged, client unwatched.
	r := newRecorder(RecorderConfig{Head: -1, Rate: -1, Clients: []string{"bob"}})
	r.Capture(&Judged{Req: req, Names: names, Verdicts: twoOfThree, Ladder: &mitigate.Decision{}})
	if st := r.Stats(); st.Seen != 1 || st.Captured != 0 {
		t.Fatalf("unsampled capture: %+v", st)
	}

	// A rung that rose is always kept. Two of three confirm; the side that
	// sat out is marked and asked for no features.
	r.Capture(&Judged{Req: req, Names: names, Verdicts: twoOfThree, Detectors: dets,
		Skipped: []bool{false, false, true}, Ladder: &climbed, RungBefore: mitigate.Allow})
	// A watched client is kept without a ladder: no action or rung, and the
	// suspicion is the vote's mean score.
	req.Entry.RemoteAddr = "bob"
	r.Capture(&Judged{Req: req, Names: names, Verdicts: twoOfThree[:2]})
	got := r.Recent(0, "", "")
	if len(got) != 2 {
		t.Fatalf("%d records captured, want 2", len(got))
	}
	watched, escalated := got[0], got[1]
	if escalated.Sampled != "escalation" || escalated.Seq != 7 || escalated.Client != "alice" ||
		!escalated.Alerted || !escalated.Confirmed || escalated.Action != "tarpit" ||
		escalated.RungBefore != "allow" || escalated.RungAfter != "tarpit" || escalated.Suspicion != 1.5 {
		t.Errorf("escalation record %+v", escalated)
	}
	d := escalated.Detectors
	if len(d) != 3 || d[0].Detector != "a" || len(d[0].Features) != 1 || d[1].Features != nil ||
		!d[2].Skipped || d[2].Features != nil || d[0].Skipped || !d[2].Alert {
		t.Errorf("escalation detector records %+v", d)
	}
	if watched.Sampled != "client" || !watched.Alerted || watched.Confirmed || watched.Action != "" ||
		watched.RungBefore != "" || watched.RungAfter != "" || watched.Suspicion != 0.6 ||
		len(watched.Detectors) != 2 || watched.Detectors[0].Features != nil {
		t.Errorf("watched-client record %+v", watched)
	}
}

type fakeExplainer struct {
	names []string
	vals  []float64
	ok    bool
}

func (f fakeExplainer) FeatureNames() []string          { return f.names }
func (f fakeExplainer) LastFeatures() ([]float64, bool) { return f.vals, f.ok }

func TestTraceHandler(t *testing.T) {
	r := newRecorder(RecorderConfig{Head: -1, Rate: 1})
	r.Add(rec(0, "alice", "rate", "allow"))
	r.Add(rec(1, "bob", "rate", "block"))
	srv := httptest.NewServer(r.TraceHandler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "?client=bob&action=block")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var doc TraceResponse
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Stats.Captured != 2 || len(doc.Records) != 1 || doc.Records[0].Client != "bob" {
		t.Errorf("trace response = %+v", doc)
	}

	res, err = srv.Client().Get(srv.URL + "?limit=zero")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 400 {
		t.Errorf("bad limit status = %d, want 400", res.StatusCode)
	}
}

func TestHandlersNilRecorder(t *testing.T) {
	var r *Recorder
	for _, h := range []struct {
		name string
		srv  *httptest.Server
	}{
		{"trace", httptest.NewServer(r.TraceHandler())},
		{"explain", httptest.NewServer(r.ExplainHandler())},
	} {
		res, err := h.srv.Client().Get(h.srv.URL + "?client=x")
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != 404 {
			t.Errorf("%s nil-recorder status = %d, want 404", h.name, res.StatusCode)
		}
		h.srv.Close()
	}
}

func TestExplainHandlerRequiresClient(t *testing.T) {
	r := newRecorder(RecorderConfig{})
	srv := httptest.NewServer(r.ExplainHandler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 400 {
		t.Errorf("missing client status = %d, want 400", res.StatusCode)
	}
	res, err = srv.Client().Get(srv.URL + "?client=alice")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var tl Timeline
	if err := json.NewDecoder(res.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	if tl.Client != "alice" {
		t.Errorf("timeline = %+v", tl)
	}
}

func TestSampleKindString(t *testing.T) {
	for k, want := range map[SampleKind]string{
		SampleNone: "", SampleHead: "head", SampleRate: "rate",
		SampleEscalation: "escalation", SampleClient: "client",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if !strings.Contains(SampleKind(99).String(), "sample") {
		t.Errorf("out-of-range String() = %q", SampleKind(99).String())
	}
}
