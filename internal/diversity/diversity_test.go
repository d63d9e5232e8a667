package diversity

import (
	"math"
	"testing"
	"testing/quick"

	"divscrape/internal/detector"
)

func TestContingencyCells(t *testing.T) {
	var c Contingency
	c.Add(true, true)
	c.Add(true, true)
	c.Add(true, false)
	c.Add(false, true)
	c.Add(false, false)
	if c.Both != 2 || c.AOnly != 1 || c.BOnly != 1 || c.Neither != 1 {
		t.Errorf("cells = %+v", c)
	}
	if c.Total() != 5 {
		t.Errorf("total = %d", c.Total())
	}
	if c.TotalA() != 3 || c.TotalB() != 3 {
		t.Errorf("marginals = %d/%d", c.TotalA(), c.TotalB())
	}

	var d Contingency
	d.Merge(c)
	d.Merge(c)
	if d.Total() != 10 {
		t.Errorf("merged total = %d", d.Total())
	}
}

// Property: cells always sum to the number of Adds, marginals are
// consistent.
func TestContingencyConservationProperty(t *testing.T) {
	f := func(pairs []struct{ A, B bool }) bool {
		var c Contingency
		var a, b uint64
		for _, p := range pairs {
			c.Add(p.A, p.B)
			if p.A {
				a++
			}
			if p.B {
				b++
			}
		}
		return c.Total() == uint64(len(pairs)) && c.TotalA() == a && c.TotalB() == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
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
	var ct CorrectnessTable
	// A correct alert by both on malicious traffic.
	ct.Add(true, true, true)
	// Both wrong: alert on benign.
	ct.Add(true, true, false)
	// A right (no alert on benign), B wrong (alert on benign).
	ct.Add(false, true, false)
	// A wrong (missed), B right (caught).
	ct.Add(false, true, true)
	if ct.BothCorrect != 1 || ct.BothWrong != 1 || ct.AOnlyCorrect != 1 || ct.BOnlyCorrect != 1 {
		t.Errorf("cells = %+v", ct)
	}
	if ct.Total() != 4 {
		t.Errorf("total = %d", ct.Total())
	}
	m := MeasuresFromCorrectness(ct)
	if m.DoubleFault != 0.25 || m.Disagreement != 0.5 {
		t.Errorf("measures = %+v", m)
	}
	if MeasuresFromCorrectness(CorrectnessTable{}).Defined {
		t.Error("empty table claims defined Q")
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
	b := NewByArchetype()
	b.Add(detector.ArchetypeHuman, false, false)
	b.Add(detector.ArchetypeHuman, true, false)
	b.Add(detector.ArchetypeScraperNaive, true, true)

	human := b.Table(detector.ArchetypeHuman)
	if human.Total() != 2 || human.AOnly != 1 || human.Neither != 1 {
		t.Errorf("human table = %+v", human)
	}
	missing := b.Table(detector.ArchetypeMonitor)
	if missing.Total() != 0 {
		t.Error("absent archetype should be a zero table")
	}
	var overall Contingency
	for _, tbl := range b.tables {
		overall.Merge(*tbl)
	}
	if overall.Total() != 3 || overall.Both != 1 {
		t.Errorf("overall = %+v", overall)
	}
}

func TestStatusBreakdown(t *testing.T) {
	s := NewStatusBreakdown()
	// 200: both alert ×3; A only ×1.
	for i := 0; i < 3; i++ {
		s.Add(200, true, true)
	}
	s.Add(200, true, false)
	// 302: B only ×2.
	s.Add(302, false, true)
	s.Add(302, false, true)
	// 404: nobody alerts — must not appear anywhere.
	s.Add(404, false, false)

	oa := s.OverallA()
	if len(oa) != 1 || oa[0].Status != 200 || oa[0].Count != 4 {
		t.Errorf("OverallA = %+v", oa)
	}
	ob := s.OverallB()
	if len(ob) != 2 || ob[0].Status != 200 || ob[0].Count != 3 || ob[1].Status != 302 {
		t.Errorf("OverallB = %+v", ob)
	}
	ea := s.ExclusiveA()
	if len(ea) != 1 || ea[0].Count != 1 {
		t.Errorf("ExclusiveA = %+v", ea)
	}
	eb := s.ExclusiveB()
	if len(eb) != 1 || eb[0].Status != 302 || eb[0].Count != 2 {
		t.Errorf("ExclusiveB = %+v", eb)
	}
}

func TestStatusBreakdownOrdering(t *testing.T) {
	s := NewStatusBreakdown()
	for i := 0; i < 5; i++ {
		s.Add(302, true, false)
	}
	for i := 0; i < 9; i++ {
		s.Add(200, true, false)
	}
	s.Add(500, true, false)
	s.Add(404, true, false) // ties with 500 at count 1: lower status first
	got := s.OverallA()
	wantOrder := []int{200, 302, 404, 500}
	for i, w := range wantOrder {
		if got[i].Status != w {
			t.Fatalf("order = %+v, want statuses %v", got, wantOrder)
		}
	}
}

// Property: per-status exclusive counts never exceed overall counts, and
// summing overall counts reproduces the contingency marginals.
func TestStatusBreakdownConsistencyProperty(t *testing.T) {
	f := func(events []struct {
		Status uint8
		A, B   bool
	}) bool {
		s := NewStatusBreakdown()
		var c Contingency
		for _, e := range events {
			status := 200 + int(e.Status)%300
			s.Add(status, e.A, e.B)
			c.Add(e.A, e.B)
		}
		sum := func(rows []StatusCount) uint64 {
			var total uint64
			for _, r := range rows {
				total += r.Count
			}
			return total
		}
		if sum(s.OverallA()) != c.TotalA() || sum(s.OverallB()) != c.TotalB() {
			return false
		}
		if sum(s.ExclusiveA()) != c.AOnly || sum(s.ExclusiveB()) != c.BOnly {
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
		MeasuresFromCorrectness(CorrectnessTable{BothWrong: 3}),
	} {
		if math.IsNaN(m.YuleQ) || math.IsNaN(m.Disagreement) || math.IsNaN(m.DoubleFault) {
			t.Errorf("NaN in %+v", m)
		}
	}
}

func TestMcNemar(t *testing.T) {
	// No discordant pairs: no evidence of a difference.
	m := McNemarFromCorrectness(CorrectnessTable{BothCorrect: 100, BothWrong: 5})
	if m.Statistic != 0 || m.PValue != 1 || m.Discordant != 0 {
		t.Errorf("concordant-only table: %+v", m)
	}
	// Symmetric discordance: statistic near zero, p near 1.
	sym := McNemarFromCorrectness(CorrectnessTable{AOnlyCorrect: 50, BOnlyCorrect: 50})
	if sym.PValue < 0.9 {
		t.Errorf("symmetric discordance p = %g, want ~1", sym.PValue)
	}
	// Heavy asymmetry: significant.
	asym := McNemarFromCorrectness(CorrectnessTable{AOnlyCorrect: 90, BOnlyCorrect: 10})
	if asym.PValue > 1e-10 {
		t.Errorf("90:10 asymmetry p = %g, want tiny", asym.PValue)
	}
	if asym.Statistic <= sym.Statistic {
		t.Error("asymmetry should increase the statistic")
	}
	// Hand-checked value: b=25, c=10 → (|15|-1)²/35 = 196/35 = 5.6.
	hand := McNemarFromCorrectness(CorrectnessTable{AOnlyCorrect: 25, BOnlyCorrect: 10})
	if math.Abs(hand.Statistic-5.6) > 1e-9 {
		t.Errorf("statistic = %g, want 5.6", hand.Statistic)
	}
	if hand.PValue > 0.025 || hand.PValue < 0.01 {
		t.Errorf("p-value = %g, want ~0.018", hand.PValue)
	}
	// P-values always in [0, 1].
	for _, b := range []uint64{0, 1, 5, 1000} {
		for _, c := range []uint64{0, 1, 7, 2000} {
			m := McNemarFromCorrectness(CorrectnessTable{AOnlyCorrect: b, BOnlyCorrect: c})
			if m.PValue < 0 || m.PValue > 1 {
				t.Fatalf("p out of range for b=%d c=%d: %g", b, c, m.PValue)
			}
		}
	}
}
