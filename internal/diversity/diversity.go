// Package diversity quantifies how differently two detectors alert on the
// same traffic: the contingency table of the paper's Table 2, the
// per-HTTP-status breakdowns of Tables 3 and 4, per-archetype disagreement
// (the paper's "look more closely into the alerts generated by only one of
// the tools"), and the classical pairwise diversity measures from the
// diversity-for-security literature the paper builds on (Yule's Q,
// disagreement, double-fault).
package diversity

import "divscrape/internal/detector"

// Contingency is the 2x2 alert-agreement table over a pair of detectors,
// the exact structure of the paper's Table 2.
type Contingency struct {
	// Both counts requests alerted by both detectors.
	Both uint64
	// Neither counts requests alerted by neither.
	Neither uint64
	// AOnly counts requests alerted only by detector A.
	AOnly uint64
	// BOnly counts requests alerted only by detector B.
	BOnly uint64
}

// Add records one request's pair of alert decisions.
func (c *Contingency) Add(aAlert, bAlert bool) {
	switch {
	case aAlert && bAlert:
		c.Both++
	case aAlert:
		c.AOnly++
	case bAlert:
		c.BOnly++
	default:
		c.Neither++
	}
}

// Total returns the number of recorded requests.
func (c *Contingency) Total() uint64 {
	return c.Both + c.Neither + c.AOnly + c.BOnly
}

// TotalA returns the requests alerted by detector A (paper Table 1 row).
func (c *Contingency) TotalA() uint64 { return c.Both + c.AOnly }

// TotalB returns the requests alerted by detector B (paper Table 1 row).
func (c *Contingency) TotalB() uint64 { return c.Both + c.BOnly }

// Merge folds another table into this one.
func (c *Contingency) Merge(o Contingency) {
	c.Both += o.Both
	c.Neither += o.Neither
	c.AOnly += o.AOnly
	c.BOnly += o.BOnly
}

// Measures are the classical pairwise diversity statistics over alert
// agreement. On unlabelled data they describe alerting correlation; on
// labelled data, build them from correctness agreement instead (see
// MeasuresFromCorrectness).
type Measures struct {
	// YuleQ is Yule's Q association in [-1, 1]: +1 means the detectors
	// always agree, 0 independence, -1 perfect complementarity.
	YuleQ float64
	// Disagreement is the fraction of requests on which exactly one
	// detector alerts.
	Disagreement float64
	// DoubleFault is, on correctness tables, the fraction both get wrong;
	// on alert tables, the fraction neither alerts.
	DoubleFault float64
	// Defined reports whether YuleQ is well-defined (denominator nonzero).
	Defined bool
}

// MeasuresFromContingency computes the statistics over an agreement table.
func MeasuresFromContingency(c Contingency) Measures {
	n := float64(c.Total())
	if n == 0 {
		return Measures{}
	}
	a := float64(c.Both)    // both positive
	b := float64(c.AOnly)   // A only
	cc := float64(c.BOnly)  // B only
	d := float64(c.Neither) // both negative
	m := Measures{
		Disagreement: (b + cc) / n,
		DoubleFault:  d / n,
	}
	den := a*d + b*cc
	if den != 0 {
		m.YuleQ = (a*d - b*cc) / den
		m.Defined = true
	}
	return m
}

// CorrectnessTable is the 2x2 agreement-on-correctness table used for
// labelled diversity measures: a detector is "correct" on a request when
// its alert decision matches the ground-truth label.
type CorrectnessTable struct {
	// BothCorrect, AOnlyCorrect, BOnlyCorrect, BothWrong partition the
	// requests by which detectors judged them correctly.
	BothCorrect  uint64
	AOnlyCorrect uint64
	BOnlyCorrect uint64
	BothWrong    uint64
}

// Add records one labelled request.
func (t *CorrectnessTable) Add(aAlert, bAlert, malicious bool) {
	aCorrect := aAlert == malicious
	bCorrect := bAlert == malicious
	switch {
	case aCorrect && bCorrect:
		t.BothCorrect++
	case aCorrect:
		t.AOnlyCorrect++
	case bCorrect:
		t.BOnlyCorrect++
	default:
		t.BothWrong++
	}
}

// Total returns the number of recorded requests.
func (t *CorrectnessTable) Total() uint64 {
	return t.BothCorrect + t.AOnlyCorrect + t.BOnlyCorrect + t.BothWrong
}

// MeasuresFromCorrectness computes the labelled diversity statistics:
// here DoubleFault is the security-relevant "both detectors wrong at
// once" rate whose minimisation is the point of diverse deployment.
func MeasuresFromCorrectness(t CorrectnessTable) Measures {
	n := float64(t.Total())
	if n == 0 {
		return Measures{}
	}
	a := float64(t.BothCorrect)
	b := float64(t.AOnlyCorrect)
	c := float64(t.BOnlyCorrect)
	d := float64(t.BothWrong)
	m := Measures{
		Disagreement: (b + c) / n,
		DoubleFault:  d / n,
	}
	den := a*d + b*c
	if den != 0 {
		m.YuleQ = (a*d - b*c) / den
		m.Defined = true
	}
	return m
}

// ByArchetype partitions contingency tables by ground-truth actor
// archetype, answering the paper's question about *why* each tool is
// alone on certain alerts.
type ByArchetype struct {
	tables map[detector.Archetype]*Contingency
}

// NewByArchetype returns an empty partitioned table.
func NewByArchetype() *ByArchetype {
	return &ByArchetype{tables: make(map[detector.Archetype]*Contingency, 9)}
}

// Add records one labelled request.
func (b *ByArchetype) Add(arch detector.Archetype, aAlert, bAlert bool) {
	t, ok := b.tables[arch]
	if !ok {
		t = &Contingency{}
		b.tables[arch] = t
	}
	t.Add(aAlert, bAlert)
}

// Table returns the contingency table for an archetype (zero table when
// the archetype never appeared).
func (b *ByArchetype) Table(arch detector.Archetype) Contingency {
	if t, ok := b.tables[arch]; ok {
		return *t
	}
	return Contingency{}
}
