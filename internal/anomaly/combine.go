// Package anomaly combines named, weighted per-request signals into one
// bounded score with per-feature explanations. Sentinel, arcane and
// trajectory each declare their features once as a Composite and score
// every request through ScoreVec.
package anomaly

import (
	"fmt"
	"math"
	"sort"
)

// Feature is one named, weighted scalar signal contributing to a composite
// anomaly score. Scores are squashed to [0, 1) before weighting so a single
// unbounded signal cannot dominate the composite.
type Feature struct {
	// Name identifies the signal in explanations.
	Name string
	// Weight scales the squashed score. Negative weights are invalid.
	Weight float64
	// Scale is the score at which the squashed value reaches 0.5; it sets
	// the "knee" of the squashing curve per feature.
	Scale float64
}

// Composite combines multiple feature scores into one [0, 1) anomaly score
// with per-feature explanations. It is the scoring backbone of both
// detectors: each detector declares its features once and feeds raw signal
// values per request.
type Composite struct {
	features []Feature
	total    float64
	// normWeight[i] is features[i].Weight / total, precomputed at
	// construction so the per-request scoring loop performs one multiply
	// per active feature instead of a divide and a multiply.
	normWeight []float64
}

// NewComposite validates and freezes a feature set.
func NewComposite(features []Feature) (*Composite, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("anomaly: composite needs at least one feature")
	}
	seen := make(map[string]bool, len(features))
	var total float64
	fs := make([]Feature, len(features))
	copy(fs, features)
	for i, f := range fs {
		if f.Name == "" {
			return nil, fmt.Errorf("anomaly: feature %d has empty name", i)
		}
		if seen[f.Name] {
			return nil, fmt.Errorf("anomaly: duplicate feature %q", f.Name)
		}
		seen[f.Name] = true
		if f.Weight < 0 {
			return nil, fmt.Errorf("anomaly: feature %q has negative weight", f.Name)
		}
		if f.Scale <= 0 {
			return nil, fmt.Errorf("anomaly: feature %q has non-positive scale", f.Name)
		}
		total += f.Weight
	}
	if total == 0 {
		return nil, fmt.Errorf("anomaly: all feature weights are zero")
	}
	norm := make([]float64, len(fs))
	for i, f := range fs {
		norm[i] = f.Weight / total
	}
	return &Composite{features: fs, total: total, normWeight: norm}, nil
}

// Contribution is one feature's share of a composite score.
type Contribution struct {
	Name     string
	Raw      float64
	Weighted float64
}

// Score combines raw per-feature values (keyed by feature name; missing
// features contribute zero) into a composite score in [0, 1). The returned
// contributions are sorted by descending weighted share and explain the
// score; callers surface the top entries as alert reasons.
func (c *Composite) Score(raw map[string]float64) (float64, []Contribution) {
	var sum float64
	contribs := make([]Contribution, 0, len(c.features))
	for i, f := range c.features {
		x, ok := raw[f.Name]
		if !ok || x <= 0 || math.IsNaN(x) {
			continue
		}
		squashed := squash(x, f.Scale)
		w := c.normWeight[i] * squashed
		sum += w
		contribs = append(contribs, Contribution{Name: f.Name, Raw: x, Weighted: w})
	}
	sort.Slice(contribs, func(i, j int) bool {
		if contribs[i].Weighted != contribs[j].Weighted {
			return contribs[i].Weighted > contribs[j].Weighted
		}
		return contribs[i].Name < contribs[j].Name
	})
	return sum, contribs
}

// ScoreVec is the allocation-free counterpart of Score: raw holds one
// value per feature in declaration order (zero, negative and NaN values
// contribute nothing), and scratch is a caller-owned contribution buffer
// reused across calls (its length is ignored; its capacity should be at
// least the feature count to stay allocation-free). The sum is
// bit-identical to Score's. The returned contributions alias scratch's
// backing array and are left in declaration order: explanations are read
// only when a request alerts, so the caller Ranks them there instead of
// paying the ordering on every request.
func (c *Composite) ScoreVec(raw []float64, scratch []Contribution) (float64, []Contribution) {
	var sum float64
	contribs := scratch[:0]
	for i := range c.features {
		x := raw[i]
		if x <= 0 || math.IsNaN(x) {
			continue
		}
		f := &c.features[i]
		squashed := squash(x, f.Scale)
		w := c.normWeight[i] * squashed
		sum += w
		contribs = append(contribs, Contribution{Name: f.Name, Raw: x, Weighted: w})
	}
	return sum, contribs
}

// Rank orders contributions in place as Score orders them: descending
// weighted share, name as the tie-break. Insertion sort — tiny inputs, no
// closure allocation, and the same total order sort.Slice produces.
func Rank(contribs []Contribution) {
	for i := 1; i < len(contribs); i++ {
		for j := i; j > 0 && contribLess(contribs[j], contribs[j-1]); j-- {
			contribs[j], contribs[j-1] = contribs[j-1], contribs[j]
		}
	}
}

func contribLess(a, b Contribution) bool {
	if a.Weighted != b.Weighted {
		return a.Weighted > b.Weighted
	}
	return a.Name < b.Name
}

// Features returns the feature names in declaration order.
func (c *Composite) Features() []string {
	names := make([]string, len(c.features))
	for i, f := range c.features {
		names[i] = f.Name
	}
	return names
}

// squash maps a non-negative raw score to [0, 1) with value 0.5 at scale:
// x / (x + scale). Monotone, bounded, and cheap.
func squash(x, scale float64) float64 {
	if x <= 0 {
		return 0
	}
	return x / (x + scale)
}
