package diversity

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"divscrape/internal/detector"
	"divscrape/internal/ensemble"
	"divscrape/internal/evaluate"
)

// alerts builds one request's verdicts from its alert decisions.
func alerts(a ...bool) []detector.Verdict {
	v := make([]detector.Verdict, len(a))
	for i := range a {
		v[i].Alert = a[i]
	}
	return v
}

func TestContingencyCells(t *testing.T) {
	tb, err := NewTable(2)
	if err != nil {
		t.Fatal(err)
	}
	tb.Add(alerts(true, true), false)
	tb.Add(alerts(true, true), true)
	tb.Add(alerts(true, false), false)
	tb.Add(alerts(false, true), true)
	tb.Add(alerts(false, false), false)
	c := tb.Pair(0, 1)
	if c.Both != 2 || c.AOnly != 1 || c.BOnly != 1 || c.Neither != 1 {
		t.Errorf("cells = %+v", c)
	}
	if c.Total() != 5 || tb.Total() != 5 {
		t.Errorf("total = %d, table total %d", c.Total(), tb.Total())
	}
	if c.TotalA() != 3 || c.TotalB() != 3 {
		t.Errorf("marginals = %d/%d", c.TotalA(), c.TotalB())
	}
	if r := tb.Pair(1, 0); r.AOnly != c.BOnly || r.BOnly != c.AOnly || r.Both != c.Both {
		t.Errorf("reversed pair = %+v, want %+v mirrored", r, c)
	}

	var d Table
	d.Merge(&tb)
	d.Merge(&tb)
	if d.Total() != 10 || d.Pair(0, 1).Both != 4 {
		t.Errorf("merged total = %d, both %d", d.Total(), d.Pair(0, 1).Both)
	}
}

// Property: cells always sum to the number of Adds, marginals are
// consistent.
func TestContingencyConservationProperty(t *testing.T) {
	f := func(pairs []struct{ A, B bool }) bool {
		tb, _ := NewTable(2)
		var a, b uint64
		for _, p := range pairs {
			tb.Add(alerts(p.A, p.B), false)
			if p.A {
				a++
			}
			if p.B {
				b++
			}
		}
		c := tb.Pair(0, 1)
		return c.Total() == uint64(len(pairs)) && c.TotalA() == a && c.TotalB() == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// model is the reference the Table's views are held to: every count kept
// by hand, request by request, the way each view's consumer once counted
// it for itself.
type model struct {
	total     uint64
	confusion []evaluate.Confusion
	votes     []evaluate.Confusion // votes[k-1]: k-out-of-n
	pairs     map[[2]int]*Contingency
	correct   map[[2]int]*Contingency
	all, none uint64
	only      []uint64
}

func newModel(n int) *model {
	m := &model{
		confusion: make([]evaluate.Confusion, n),
		votes:     make([]evaluate.Confusion, n),
		pairs:     map[[2]int]*Contingency{},
		correct:   map[[2]int]*Contingency{},
		only:      make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.pairs[[2]int{i, j}] = &Contingency{}
				m.correct[[2]int{i, j}] = &Contingency{}
			}
		}
	}
	return m
}

func count(c *Contingency, a, b bool) {
	switch {
	case a && b:
		c.Both++
	case a:
		c.AOnly++
	case b:
		c.BOnly++
	default:
		c.Neither++
	}
}

func (m *model) add(v []detector.Verdict, malicious bool) {
	m.total++
	votes, last := 0, -1
	for i := range v {
		m.confusion[i].Add(v[i].Alert, malicious)
		if v[i].Alert {
			votes, last = votes+1, i
		}
	}
	for k := 1; k <= len(v); k++ {
		m.votes[k-1].Add(ensemble.KOutOfN{K: k}.Decide(v).Alert, malicious)
	}
	for ij, c := range m.pairs {
		a, b := v[ij[0]].Alert, v[ij[1]].Alert
		count(c, a, b)
		count(m.correct[ij], a == malicious, b == malicious)
	}
	switch votes {
	case len(v):
		m.all++
	case 0:
		m.none++
	}
	if votes == 1 {
		m.only[last]++
	}
}

// TestTableMatchesModel feeds random verdict streams over 1 to 8
// detectors, labelled and unlabelled, to a Table and to the reference
// counters, and requires every view to equal its reference.
func TestTableMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 1))
	for n := 1; n <= MaxDetectors; n++ {
		for _, labelled := range []bool{true, false} {
			tb, err := NewTable(n)
			if err != nil {
				t.Fatal(err)
			}
			m := newModel(n)
			// Per-detector alert rates differ, so the pairs are not
			// symmetric and every cell is reachable.
			rates := make([]float64, n)
			for i := range rates {
				rates[i] = 0.2 + 0.6*rng.Float64()
			}
			for r := 0; r < 3000; r++ {
				v := make([]detector.Verdict, n)
				for i := range v {
					v[i].Alert = rng.Float64() < rates[i]
				}
				malicious := labelled && rng.IntN(2) == 0
				tb.Add(v, malicious)
				m.add(v, malicious)
			}
			name := fmt.Sprintf("n=%d labelled=%v", n, labelled)
			if tb.Total() != m.total || tb.All() != m.all || tb.None() != m.none {
				t.Errorf("%s: total/all/none = %d/%d/%d, want %d/%d/%d",
					name, tb.Total(), tb.All(), tb.None(), m.total, m.all, m.none)
			}
			for i := 0; i < n; i++ {
				if got := tb.Confusion(i); got != m.confusion[i] {
					t.Errorf("%s: Confusion(%d) = %+v, want %+v", name, i, got, m.confusion[i])
				}
				if got := tb.Vote(i + 1); got != m.votes[i] {
					t.Errorf("%s: Vote(%d) = %+v, want %+v", name, i+1, got, m.votes[i])
				}
				if tb.Only(i) != m.only[i] {
					t.Errorf("%s: Only(%d) = %d, want %d", name, i, tb.Only(i), m.only[i])
				}
			}
			for ij, want := range m.pairs {
				if got := tb.Pair(ij[0], ij[1]); got != *want {
					t.Errorf("%s: Pair%v = %+v, want %+v", name, ij, got, *want)
				}
				if got := tb.Correctness(ij[0], ij[1]); got != *m.correct[ij] {
					t.Errorf("%s: Correctness%v = %+v, want %+v", name, ij, got, *m.correct[ij])
				}
			}
		}
	}
}

// TestTableMergeOfSplitStream cuts a stream at every kind of point and
// requires the merged halves to be the whole stream's table.
func TestTableMergeOfSplitStream(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 2))
	for n := 1; n <= MaxDetectors; n++ {
		whole, _ := NewTable(n)
		parts := make([]Table, 3)
		for i := range parts {
			parts[i], _ = NewTable(n)
		}
		for r := 0; r < 2000; r++ {
			v := make([]detector.Verdict, n)
			for i := range v {
				v[i].Alert = rng.IntN(2) == 0
			}
			malicious := rng.IntN(3) == 0
			whole.Add(v, malicious)
			parts[rng.IntN(len(parts))].Add(v, malicious)
		}
		var merged Table
		for i := range parts {
			merged.Merge(&parts[i])
		}
		merged.Merge(&Table{}) // an empty part adds nothing
		if !reflect.DeepEqual(merged, whole) {
			t.Errorf("n=%d: merged parts %+v, want the whole stream's %+v", n, merged, whole)
		}
	}
}

func TestTableRefusesOutOfRange(t *testing.T) {
	for _, n := range []int{-1, 0, MaxDetectors + 1} {
		if _, err := NewTable(n); err == nil {
			t.Errorf("NewTable(%d) accepted", n)
		}
		if _, err := NewPartition[int](n); err == nil {
			t.Errorf("NewPartition(%d) accepted", n)
		}
	}
	tb, _ := NewTable(2)
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("three verdicts into a pair table", func() { tb.Add(alerts(true, true, true), false) })
	three, _ := NewTable(3)
	mustPanic("merging tables of different sizes", func() { tb.Merge(&three) })
}

func TestMeasuresFromContingency(t *testing.T) {
	// Perfect agreement: Q = 1, disagreement 0.
	perfect := Contingency{Both: 50, Neither: 50}
	m := MeasuresFromContingency(perfect)
	if !m.Defined || m.YuleQ != 1 || m.Disagreement != 0 {
		t.Errorf("perfect agreement: %+v", m)
	}
	// Perfect complementarity: Q = -1, disagreement 1.
	complement := Contingency{AOnly: 50, BOnly: 50}
	m2 := MeasuresFromContingency(complement)
	if !m2.Defined || m2.YuleQ != -1 || m2.Disagreement != 1 {
		t.Errorf("perfect complement: %+v", m2)
	}
	// Independence: ad == bc → Q = 0.
	indep := Contingency{Both: 10, Neither: 10, AOnly: 10, BOnly: 10}
	m3 := MeasuresFromContingency(indep)
	if !m3.Defined || m3.YuleQ != 0 {
		t.Errorf("independence: %+v", m3)
	}
	// Empty: undefined, zeros.
	m4 := MeasuresFromContingency(Contingency{})
	if m4.Defined || m4.YuleQ != 0 {
		t.Errorf("empty: %+v", m4)
	}
	// All in one agreeing cell: denominator zero → undefined Q.
	m5 := MeasuresFromContingency(Contingency{Both: 10})
	if m5.Defined {
		t.Errorf("degenerate table claims defined Q: %+v", m5)
	}
}

func TestCorrectnessTable(t *testing.T) {
	tb, _ := NewTable(2)
	// A correct alert by both on malicious traffic.
	tb.Add(alerts(true, true), true)
	// Both wrong: alert on benign.
	tb.Add(alerts(true, true), false)
	// A right (no alert on benign), B wrong (alert on benign).
	tb.Add(alerts(false, true), false)
	// A wrong (missed), B right (caught).
	tb.Add(alerts(false, true), true)
	ct := tb.Correctness(0, 1)
	if ct.Both != 1 || ct.Neither != 1 || ct.AOnly != 1 || ct.BOnly != 1 {
		t.Errorf("cells = %+v", ct)
	}
	m := MeasuresFromContingency(ct)
	if m.DoubleFault != 0.25 || m.Disagreement != 0.5 {
		t.Errorf("measures = %+v", m)
	}
	// Alert agreement reads the same stream differently: B alerted on all
	// four requests, A on two of them.
	if a := tb.Pair(0, 1); a.Both != 2 || a.BOnly != 2 || a.AOnly != 0 {
		t.Errorf("alert agreement = %+v", a)
	}
}

func TestYuleQRange(t *testing.T) {
	f := func(a, b, c, d uint16) bool {
		m := MeasuresFromContingency(Contingency{
			Both: uint64(a), AOnly: uint64(b), BOnly: uint64(c), Neither: uint64(d),
		})
		if !m.Defined {
			return true
		}
		return m.YuleQ >= -1-1e-12 && m.YuleQ <= 1+1e-12 &&
			m.Disagreement >= 0 && m.Disagreement <= 1 &&
			m.DoubleFault >= 0 && m.DoubleFault <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestByArchetype(t *testing.T) {
	b, err := NewPartition[detector.Archetype](2)
	if err != nil {
		t.Fatal(err)
	}
	b.Add(detector.ArchetypeHuman, alerts(false, false), false)
	b.Add(detector.ArchetypeHuman, alerts(true, false), false)
	b.Add(detector.ArchetypeScraperNaive, alerts(true, true), true)

	human := b.Table(detector.ArchetypeHuman).Pair(0, 1)
	if human.Total() != 2 || human.AOnly != 1 || human.Neither != 1 {
		t.Errorf("human table = %+v", human)
	}
	if b.Table(detector.ArchetypeMonitor).Total() != 0 {
		t.Error("absent archetype should be a zero table")
	}
	var overall Table
	for _, tbl := range b.tables {
		overall.Merge(tbl)
	}
	if overall.Total() != 3 || overall.All() != 1 {
		t.Errorf("overall = %+v", overall)
	}
}

// The per-status views of the paper's Tables 3 and 4.
func overallA(t *Table) uint64   { return t.Pair(0, 1).TotalA() }
func overallB(t *Table) uint64   { return t.Pair(0, 1).TotalB() }
func exclusiveA(t *Table) uint64 { return t.Only(0) }
func exclusiveB(t *Table) uint64 { return t.Only(1) }

func TestStatusBreakdown(t *testing.T) {
	s, _ := NewPartition[int](2)
	// 200: both alert ×3; A only ×1.
	for i := 0; i < 3; i++ {
		s.Add(200, alerts(true, true), true)
	}
	s.Add(200, alerts(true, false), false)
	// 302: B only ×2.
	s.Add(302, alerts(false, true), true)
	s.Add(302, alerts(false, true), false)
	// 404: nobody alerts — must not appear anywhere.
	s.Add(404, alerts(false, false), false)

	oa := s.Ranked(overallA)
	if len(oa) != 1 || oa[0].Key != 200 || oa[0].Count != 4 {
		t.Errorf("OverallA = %+v", oa)
	}
	ob := s.Ranked(overallB)
	if len(ob) != 2 || ob[0].Key != 200 || ob[0].Count != 3 || ob[1].Key != 302 {
		t.Errorf("OverallB = %+v", ob)
	}
	ea := s.Ranked(exclusiveA)
	if len(ea) != 1 || ea[0].Count != 1 {
		t.Errorf("ExclusiveA = %+v", ea)
	}
	eb := s.Ranked(exclusiveB)
	if len(eb) != 1 || eb[0].Key != 302 || eb[0].Count != 2 {
		t.Errorf("ExclusiveB = %+v", eb)
	}
}

func TestStatusBreakdownOrdering(t *testing.T) {
	s, _ := NewPartition[int](2)
	for i := 0; i < 5; i++ {
		s.Add(302, alerts(true, false), true)
	}
	for i := 0; i < 9; i++ {
		s.Add(200, alerts(true, false), true)
	}
	s.Add(500, alerts(true, false), true)
	s.Add(404, alerts(true, false), true) // ties with 500 at count 1: lower status first
	got := s.Ranked(overallA)
	wantOrder := []int{200, 302, 404, 500}
	for i, w := range wantOrder {
		if got[i].Key != w {
			t.Fatalf("order = %+v, want statuses %v", got, wantOrder)
		}
	}
}

// Property: per-status exclusive counts never exceed overall counts, and
// summing overall counts reproduces the whole stream's marginals.
func TestStatusBreakdownConsistencyProperty(t *testing.T) {
	f := func(events []struct {
		Status uint8
		A, B   bool
	}) bool {
		s, _ := NewPartition[int](2)
		tb, _ := NewTable(2)
		for _, e := range events {
			status := 200 + int(e.Status)%300
			s.Add(status, alerts(e.A, e.B), false)
			tb.Add(alerts(e.A, e.B), false)
		}
		sum := func(rows []KeyCount[int]) uint64 {
			var total uint64
			for _, r := range rows {
				total += r.Count
			}
			return total
		}
		c := tb.Pair(0, 1)
		if sum(s.Ranked(overallA)) != c.TotalA() || sum(s.Ranked(overallB)) != c.TotalB() {
			return false
		}
		if sum(s.Ranked(exclusiveA)) != c.AOnly || sum(s.Ranked(exclusiveB)) != c.BOnly {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeasuresNaNFree(t *testing.T) {
	for _, m := range []Measures{
		MeasuresFromContingency(Contingency{}),
		MeasuresFromContingency(Contingency{Both: 1}),
		MeasuresFromContingency(Contingency{Neither: 3}),
	} {
		if math.IsNaN(m.YuleQ) || math.IsNaN(m.Disagreement) || math.IsNaN(m.DoubleFault) {
			t.Errorf("NaN in %+v", m)
		}
	}
}

func TestMcNemar(t *testing.T) {
	// No discordant pairs: no evidence of a difference.
	m := McNemarFromCorrectness(Contingency{Both: 100, Neither: 5})
	if m.Statistic != 0 || m.PValue != 1 || m.Discordant != 0 {
		t.Errorf("concordant-only table: %+v", m)
	}
	// Symmetric discordance: statistic near zero, p near 1.
	sym := McNemarFromCorrectness(Contingency{AOnly: 50, BOnly: 50})
	if sym.PValue < 0.9 {
		t.Errorf("symmetric discordance p = %g, want ~1", sym.PValue)
	}
	// Heavy asymmetry: significant.
	asym := McNemarFromCorrectness(Contingency{AOnly: 90, BOnly: 10})
	if asym.PValue > 1e-10 {
		t.Errorf("90:10 asymmetry p = %g, want tiny", asym.PValue)
	}
	if asym.Statistic <= sym.Statistic {
		t.Error("asymmetry should increase the statistic")
	}
	// Hand-checked value: b=25, c=10 → (|15|-1)²/35 = 196/35 = 5.6.
	hand := McNemarFromCorrectness(Contingency{AOnly: 25, BOnly: 10})
	if math.Abs(hand.Statistic-5.6) > 1e-9 {
		t.Errorf("statistic = %g, want 5.6", hand.Statistic)
	}
	if hand.PValue > 0.025 || hand.PValue < 0.01 {
		t.Errorf("p-value = %g, want ~0.018", hand.PValue)
	}
	// P-values always in [0, 1].
	for _, b := range []uint64{0, 1, 5, 1000} {
		for _, c := range []uint64{0, 1, 7, 2000} {
			m := McNemarFromCorrectness(Contingency{AOnly: b, BOnly: c})
			if m.PValue < 0 || m.PValue > 1 {
				t.Fatalf("p out of range for b=%d c=%d: %g", b, c, m.PValue)
			}
		}
	}
}
