package ensemble

import (
	"strconv"
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/logfmt"
)

// scriptedDetector alerts on requests whose path carries its tag, and
// counts how many requests it has inspected — enough to test topology
// routing and cost accounting without real detectors.
type scriptedDetector struct {
	name      string
	tag       string
	inspected int
	resets    int
}

var _ detector.Detector = (*scriptedDetector)(nil)

func (d *scriptedDetector) Name() string { return d.name }
func (d *scriptedDetector) Reset()       { d.resets++; d.inspected = 0 }
func (d *scriptedDetector) Inspect(req *detector.Request) detector.Verdict {
	d.inspected++
	alert := contains(req.Entry.Path, d.tag)
	score := 0.1
	if alert {
		score = 0.9
	}
	return detector.Verdict{Alert: alert, Score: score, Reasons: reasonsIf(alert, d.name)}
}

func (d *scriptedDetector) InspectInto(req *detector.Request, out *detector.Verdict) {
	*out = d.Inspect(req)
}

func reasonsIf(alert bool, name string) detector.ReasonList {
	if alert {
		return detector.ReasonsOf(name)
	}
	return detector.ReasonList{}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func req(path string, seq int) *detector.Request {
	r := detector.NewEnricher(nil).Enrich(logfmt.Entry{
		Path: path,
		Time: time.Date(2018, 3, 11, 0, 0, seq, 0, time.UTC),
	})
	r.Seq = uint64(seq)
	return &r
}

// A parallel deployment runs every detector on every request and votes
// over the verdicts: 1-out-of-2 alerts on either side, 2-out-of-2 only on
// both.
func TestParallelRunsEveryDetector(t *testing.T) {
	a := &scriptedDetector{name: "a", tag: "/alpha"}
	b := &scriptedDetector{name: "b", tag: "/beta"}
	paths := []string{"/alpha/1", "/beta/2", "/gamma/3", "/alpha/beta"}
	want1, want2 := []bool{true, true, false, true}, []bool{false, false, false, true}
	for i, path := range paths {
		r := req(path, i)
		verdicts := []detector.Verdict{a.Inspect(r), b.Inspect(r)}
		if got := (KOutOfN{K: 1}).Decide(verdicts); got.Alert != want1[i] {
			t.Errorf("path %s: 1oo2 alert = %v, want %v", path, got.Alert, want1[i])
		}
		if got := (KOutOfN{K: 2}).Decide(verdicts); got.Alert != want2[i] {
			t.Errorf("path %s: 2oo2 alert = %v, want %v", path, got.Alert, want2[i])
		}
	}
}

func TestSerialValidation(t *testing.T) {
	d := &scriptedDetector{name: "d"}
	if _, err := NewSerial(nil, d, CascadeOR); err == nil {
		t.Error("nil filter accepted")
	}
	if _, err := NewSerial(d, nil, CascadeOR); err == nil {
		t.Error("nil analyzer accepted")
	}
	if _, err := NewSerial(d, d, SerialMode(0)); err == nil {
		t.Error("invalid mode accepted")
	}
}

func TestSerialCascadeOR(t *testing.T) {
	filter := &scriptedDetector{name: "filter", tag: "/alpha"}
	analyzer := &scriptedDetector{name: "analyzer", tag: "/beta"}
	s, err := NewSerial(filter, analyzer, CascadeOR)
	if err != nil {
		t.Fatal(err)
	}
	// Filter alert short-circuits: the analyzer never sees /alpha.
	if got := s.Inspect(req("/alpha/1", 0)); !got.Alert {
		t.Error("filter alert not final")
	}
	if analyzer.inspected != 0 {
		t.Error("analyzer consulted despite filter alert")
	}
	// Filter pass + analyzer alert → alert.
	if got := s.Inspect(req("/beta/2", 1)); !got.Alert {
		t.Error("analyzer alert not surfaced")
	}
	// Both pass → clean.
	if got := s.Inspect(req("/gamma/3", 2)); got.Alert {
		t.Error("clean traffic alerted")
	}
	costs := s.Cost()
	if costs[0].Inspected != 3 || costs[1].Inspected != 2 {
		t.Errorf("OR costs = %+v, want 3/2", costs)
	}
}

func TestSerialCascadeAND(t *testing.T) {
	filter := &scriptedDetector{name: "filter", tag: "/sus"}
	analyzer := &scriptedDetector{name: "analyzer", tag: "/sus/confirmed"}
	s, err := NewSerial(filter, analyzer, CascadeAND)
	if err != nil {
		t.Fatal(err)
	}
	// Clean traffic never reaches the analyzer.
	if got := s.Inspect(req("/ok", 0)); got.Alert {
		t.Error("clean alerted")
	}
	if analyzer.inspected != 0 {
		t.Error("analyzer consulted on clean traffic")
	}
	// Filter-only suspicion is not confirmed → no alarm.
	if got := s.Inspect(req("/sus/unconfirmed", 1)); got.Alert {
		t.Error("unconfirmed suspicion alerted")
	}
	// Both agree → alarm, with merged reasons.
	got := s.Inspect(req("/sus/confirmed", 2))
	if !got.Alert {
		t.Error("confirmed suspicion not alerted")
	}
	if got.Reasons.Len() == 0 {
		t.Error("confirmed alert has no reasons")
	}
	costs := s.Cost()
	if costs[0].Inspected != 3 || costs[1].Inspected != 2 {
		t.Errorf("AND costs = %+v, want 3/2", costs)
	}
	if s.Name() == "" {
		t.Error("empty name")
	}
	s.Reset()
	if c := s.Cost(); c[0].Inspected != 0 || c[1].Inspected != 0 {
		t.Error("Reset left costs")
	}
}

// Cross-topology invariant: on stateless detectors, serial OR equals
// parallel 1oo2 decisions and serial AND equals parallel 2oo2 decisions.
func TestSerialMatchesVoteSemantics(t *testing.T) {
	paths := make([]string, 60)
	for i := range paths {
		switch i % 4 {
		case 0:
			paths[i] = "/alpha/" + strconv.Itoa(i)
		case 1:
			paths[i] = "/beta/" + strconv.Itoa(i)
		case 2:
			paths[i] = "/alpha/beta/" + strconv.Itoa(i)
		default:
			paths[i] = "/clean/" + strconv.Itoa(i)
		}
	}
	mk := func() (*scriptedDetector, *scriptedDetector) {
		return &scriptedDetector{name: "a", tag: "/alpha"}, &scriptedDetector{name: "b", tag: "/beta"}
	}
	a, b := mk()
	a3, b3 := mk()
	sOR, _ := NewSerial(a3, b3, CascadeOR)
	a4, b4 := mk()
	sAND, _ := NewSerial(a4, b4, CascadeAND)
	for i, path := range paths {
		r := req(path, i)
		verdicts := []detector.Verdict{a.Inspect(r), b.Inspect(r)}
		or1, or2 := KOutOfN{K: 1}.Decide(verdicts).Alert, sOR.Inspect(r).Alert
		and1, and2 := KOutOfN{K: 2}.Decide(verdicts).Alert, sAND.Inspect(r).Alert
		if or1 != or2 {
			t.Errorf("%s: serial OR %v != parallel 1oo2 %v", path, or2, or1)
		}
		if and1 != and2 {
			t.Errorf("%s: serial AND %v != parallel 2oo2 %v", path, and2, and1)
		}
	}
	// And the cost saving is real: the serial analyzers inspected less.
	if sORCost := sOR.Cost(); sORCost[1].Inspected >= sORCost[0].Inspected {
		t.Errorf("serial OR second stage saw %d of %d", sORCost[1].Inspected, sORCost[0].Inspected)
	}
	if sANDCost := sAND.Cost(); sANDCost[1].Inspected >= sANDCost[0].Inspected {
		t.Errorf("serial AND second stage saw %d of %d", sANDCost[1].Inspected, sANDCost[0].Inspected)
	}
}

func TestSerialModeString(t *testing.T) {
	if CascadeOR.String() != "cascade-or" || CascadeAND.String() != "cascade-and" {
		t.Error("mode names wrong")
	}
	if SerialMode(9).String() == "" {
		t.Error("unknown mode renders empty")
	}
}
