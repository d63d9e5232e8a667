// Package diversity counts how differently N detectors alert on the same
// traffic. One labelled table holds every count: Table keeps a request
// count per (alert pattern, ground truth) cell, and everything the paper
// and its planned next steps report is a view of it — the per-tool alert
// totals of Table 1, the pair table of Table 2 for any two detectors,
// per-detector confusion matrices, the k-out-of-n votes, the all, none
// and only-one buckets, and the labelled agreement-on-correctness table.
// A Partition keeps a Table per key: per HTTP status for Tables 3 and 4,
// per ground-truth archetype for the paper's "look more closely into the
// alerts generated by only one of the tools". The classical pairwise
// diversity measures from the diversity-for-security literature the
// paper builds on (Yule's Q, disagreement, double fault) and the McNemar
// test read a pair's Contingency.
package diversity

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"divscrape/internal/detector"
	"divscrape/internal/evaluate"
)

// Contingency is the 2x2 agreement table over a pair of detectors, the
// exact structure of the paper's Table 2. Table.Pair fills it with alert
// agreement, Table.Correctness with agreement on being right.
type Contingency struct {
	// Both counts requests alerted (judged correctly) by both detectors.
	Both uint64
	// Neither counts requests alerted (judged correctly) by neither.
	Neither uint64
	// AOnly counts requests alerted (judged correctly) only by detector A.
	AOnly uint64
	// BOnly counts requests alerted (judged correctly) only by detector B.
	BOnly uint64
}

// Total returns the number of recorded requests.
func (c Contingency) Total() uint64 {
	return c.Both + c.Neither + c.AOnly + c.BOnly
}

// TotalA returns the requests alerted by detector A (paper Table 1 row).
func (c Contingency) TotalA() uint64 { return c.Both + c.AOnly }

// TotalB returns the requests alerted by detector B (paper Table 1 row).
func (c Contingency) TotalB() uint64 { return c.Both + c.BOnly }

// Measures are the classical pairwise diversity statistics over a
// Contingency. Over alert agreement they describe alerting correlation;
// over correctness agreement (Table.Correctness) DoubleFault is the
// security-relevant "both detectors wrong at once" rate whose
// minimisation is the point of diverse deployment.
type Measures struct {
	// YuleQ is Yule's Q association in [-1, 1]: +1 means the detectors
	// always agree, 0 independence, -1 perfect complementarity.
	YuleQ float64
	// Disagreement is the fraction of requests on which exactly one
	// detector alerts (is correct).
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

// MaxDetectors is the most detectors a Table holds.
const MaxDetectors = 8

// Table is the N-way labelled alert-agreement table: one request count
// per cell of 2ⁿ alert patterns (bit i set when detector i alerted) times
// the two ground truths. Unlabelled traffic counts as benign; its
// confusion views then mean nothing, and the alert views are unaffected.
// Every count is order-free, so the tables of a stream's parts merge into
// the whole stream's. The zero Table is empty and only usable as a Merge
// target.
type Table struct {
	n     int
	cells []uint64 // index pattern<<1 | malicious
}

// NewTable returns an empty table over n detectors, 1 ≤ n ≤ MaxDetectors.
func NewTable(n int) (Table, error) {
	if n < 1 || n > MaxDetectors {
		return Table{}, fmt.Errorf("diversity: a table holds 1 to %d detectors, not %d", MaxDetectors, n)
	}
	return Table{n: n, cells: make([]uint64, 2<<n)}, nil
}

// Add records one request: its verdicts, one per detector in table
// order, and its ground truth.
func (t *Table) Add(verdicts []detector.Verdict, malicious bool) {
	if len(verdicts) != t.n {
		panic(fmt.Sprintf("diversity: %d verdicts for a table of %d detectors", len(verdicts), t.n))
	}
	cell := 0
	if malicious {
		cell = 1
	}
	for i := range verdicts {
		if verdicts[i].Alert {
			cell |= 2 << i
		}
	}
	t.cells[cell]++
}

// Merge folds o into t; a zero t adopts o's detector count. Tables over
// different detector counts do not merge.
func (t *Table) Merge(o *Table) {
	if o.cells == nil {
		return
	}
	if t.cells == nil {
		t.n, t.cells = o.n, make([]uint64, len(o.cells))
	}
	if t.n != o.n {
		panic(fmt.Sprintf("diversity: merging a table of %d detectors into one of %d", o.n, t.n))
	}
	for i, c := range o.cells {
		t.cells[i] += c
	}
}

// Total returns the number of recorded requests.
func (t *Table) Total() uint64 {
	var n uint64
	for _, c := range t.cells {
		n += c
	}
	return n
}

// All counts the requests every detector alerted on.
func (t *Table) All() uint64 { return t.pattern(1<<t.n - 1) }

// None counts the requests no detector alerted on.
func (t *Table) None() uint64 { return t.pattern(0) }

// Only counts the requests detector i alone alerted on.
func (t *Table) Only(i int) uint64 { return t.pattern(1 << i) }

func (t *Table) pattern(p int) uint64 {
	if t.cells == nil {
		return 0
	}
	return t.cells[p<<1] + t.cells[p<<1|1]
}

// Confusion returns detector i's labelled confusion matrix.
func (t *Table) Confusion(i int) evaluate.Confusion {
	return t.confusion(func(p int) bool { return p>>i&1 == 1 })
}

// Vote returns the labelled confusion matrix of the k-out-of-n vote,
// which alerts when at least k detectors do (ensemble.KOutOfN).
func (t *Table) Vote(k int) evaluate.Confusion {
	return t.confusion(func(p int) bool { return bits.OnesCount(uint(p)) >= k })
}

func (t *Table) confusion(alert func(pattern int) bool) evaluate.Confusion {
	var c evaluate.Confusion
	for cell, n := range t.cells {
		switch a, m := alert(cell>>1), cell&1 == 1; {
		case a && m:
			c.TP += n
		case a:
			c.FP += n
		case m:
			c.FN += n
		default:
			c.TN += n
		}
	}
	return c
}

// Pair returns the alert-agreement table of detectors i (A) and j (B):
// the paper's Table 2 for that pair.
func (t *Table) Pair(i, j int) Contingency { return t.pair(i, j, false) }

// Correctness returns the agreement-on-correctness table of detectors i
// (A) and j (B), where a detector is correct on a request when its alert
// matches the ground truth: the table the labelled diversity measures and
// the McNemar test read.
func (t *Table) Correctness(i, j int) Contingency { return t.pair(i, j, true) }

func (t *Table) pair(i, j int, correct bool) Contingency {
	var c Contingency
	for cell, n := range t.cells {
		a, b := cell>>(i+1)&1 == 1, cell>>(j+1)&1 == 1
		if correct {
			m := cell&1 == 1
			a, b = a == m, b == m
		}
		switch {
		case a && b:
			c.Both += n
		case a:
			c.AOnly += n
		case b:
			c.BOnly += n
		default:
			c.Neither += n
		}
	}
	return c
}

// Partition keeps one Table per key: per HTTP status behind the paper's
// Tables 3 and 4, per ground-truth archetype for E8.
type Partition[K cmp.Ordered] struct {
	n      int
	tables map[K]*Table
}

// NewPartition returns an empty partition of tables over n detectors.
func NewPartition[K cmp.Ordered](n int) (*Partition[K], error) {
	if _, err := NewTable(n); err != nil {
		return nil, err
	}
	return &Partition[K]{n: n, tables: make(map[K]*Table)}, nil
}

// Add records one request under key.
func (p *Partition[K]) Add(key K, verdicts []detector.Verdict, malicious bool) {
	t, ok := p.tables[key]
	if !ok {
		t = &Table{n: p.n, cells: make([]uint64, 2<<p.n)}
		p.tables[key] = t
	}
	t.Add(verdicts, malicious)
}

// Table returns key's table, the zero Table when key never appeared.
func (p *Partition[K]) Table(key K) *Table {
	if t, ok := p.tables[key]; ok {
		return t
	}
	return &Table{}
}

// KeyCount is one row of a ranked per-key table.
type KeyCount[K cmp.Ordered] struct {
	// Key is the partition key (an HTTP status, an archetype).
	Key K
	// Count is what the ranking view read from the key's table.
	Count uint64
}

// Ranked returns count of each key's table, nonzero counts only, by
// descending count and then ascending key: the ordering of the paper's
// Tables 3 and 4.
func (p *Partition[K]) Ranked(count func(*Table) uint64) []KeyCount[K] {
	var out []KeyCount[K]
	for k, t := range p.tables {
		if n := count(t); n > 0 {
			out = append(out, KeyCount[K]{Key: k, Count: n})
		}
	}
	slices.SortFunc(out, func(a, b KeyCount[K]) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(a.Key, b.Key)
	})
	return out
}
