package detector

import (
	"fmt"

	"divscrape/internal/anomaly"
)

// FeatureIndex is an ordered, immutable name→slot table shared between a
// detector and its composite scorer, so both sides agree on the layout of
// the flat []float64 feature vectors used on the hot path. Declaring the
// index once per detector replaces the per-request map[string]float64 the
// detectors previously allocated: features are addressed by integer slot
// and the vector is reused across requests.
type FeatureIndex struct {
	names []string
	index map[string]int
}

// NewFeatureIndex freezes names into an index. Names must be unique and
// non-empty; violations panic, as the feature list is a compile-time
// constant of each detector.
func NewFeatureIndex(names ...string) *FeatureIndex {
	if len(names) == 0 {
		panic("detector: feature index needs at least one name")
	}
	fi := &FeatureIndex{
		names: append([]string(nil), names...),
		index: make(map[string]int, len(names)),
	}
	for i, n := range fi.names {
		if n == "" {
			panic(fmt.Sprintf("detector: feature %d has empty name", i))
		}
		if _, dup := fi.index[n]; dup {
			panic(fmt.Sprintf("detector: duplicate feature %q", n))
		}
		fi.index[n] = i
	}
	return fi
}

// Len returns the number of features (the length of a matching vector).
func (fi *FeatureIndex) Len() int { return len(fi.names) }

// Names returns the feature names in slot order. The caller must not
// mutate the result.
func (fi *FeatureIndex) Names() []string { return fi.names }

// Index returns the slot of name, or -1 when unknown.
func (fi *FeatureIndex) Index(name string) int {
	if i, ok := fi.index[name]; ok {
		return i
	}
	return -1
}

// NewVector allocates a zeroed vector matching the index layout.
func (fi *FeatureIndex) NewVector() []float64 { return make([]float64, len(fi.names)) }

// Explain records why a request alerted: contribs (a ScoreVec result, in
// declaration order) are ranked in place, most significant first, and
// their interned feature names appended to out, which caps the depth.
// Detectors call it on the alert branch only: reasons are read nowhere
// else, so requests that do not alert never pay for the ordering.
func Explain(out *ReasonList, contribs []anomaly.Contribution) {
	anomaly.Rank(contribs)
	for i := range contribs {
		out.Append(contribs[i].Name)
	}
}
