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

func TestParallelValidation(t *testing.T) {
	if _, err := NewParallel(KOutOfN{K: 1}); err == nil {
		t.Error("no detectors accepted")
	}
	if _, err := NewParallel(nil, &scriptedDetector{name: "x"}); err == nil {
		t.Error("nil adjudicator accepted")
	}
}

func TestParallelRunsEveryDetector(t *testing.T) {
	a := &scriptedDetector{name: "a", tag: "/alpha"}
	b := &scriptedDetector{name: "b", tag: "/beta"}
	p, err := NewParallel(KOutOfN{K: 1}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"/alpha/1", "/beta/2", "/gamma/3", "/alpha/beta"}
	wantAlerts := []bool{true, true, false, true}
	for i, path := range paths {
		got := p.Inspect(req(path, i))
		if got.Alert != wantAlerts[i] {
			t.Errorf("path %s: alert = %v, want %v", path, got.Alert, wantAlerts[i])
		}
	}
	costs := p.Cost()
	if costs[0].Inspected != 4 || costs[1].Inspected != 4 {
		t.Errorf("parallel costs = %+v, want 4/4", costs)
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
	p.Reset()
	if a.resets != 1 || b.resets != 1 {
		t.Error("Reset not propagated")
	}
	if c := p.Cost(); c[0].Inspected != 0 {
		t.Error("Reset left costs")
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
	build := func() (Topology, Topology, Topology, Topology) {
		mk := func() (detector.Detector, detector.Detector) {
			return &scriptedDetector{name: "a", tag: "/alpha"},
				&scriptedDetector{name: "b", tag: "/beta"}
		}
		a1, b1 := mk()
		p1, _ := NewParallel(KOutOfN{K: 1}, a1, b1)
		a2, b2 := mk()
		p2, _ := NewParallel(KOutOfN{K: 2}, a2, b2)
		a3, b3 := mk()
		sOR, _ := NewSerial(a3, b3, CascadeOR)
		a4, b4 := mk()
		sAND, _ := NewSerial(a4, b4, CascadeAND)
		return p1, p2, sOR, sAND
	}
	p1, p2, sOR, sAND := build()
	for i, path := range paths {
		r := req(path, i)
		or1, or2 := p1.Inspect(r).Alert, sOR.Inspect(r).Alert
		and1, and2 := p2.Inspect(r).Alert, sAND.Inspect(r).Alert
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
