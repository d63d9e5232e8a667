package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// Histogram edge cases: observations the IEEE float lattice allows but
// callers never intend. The registry's contract is that no observation,
// however pathological, can break a scrape — the Prometheus text stays
// grammatical (its grammar admits bare NaN/+Inf) and the JSON document
// stays parseable (non-finite sums encode as quoted strings).

func TestHistogramNonFiniteObservations(t *testing.T) {
	r := NewRegistry()
	h := r.MustHistogram("weird_seconds", "Edge-case histogram.", []float64{1, 10})
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	h.Observe(5)

	if got := h.Count(); got != 4 {
		t.Errorf("Count = %d, want 4 (non-finite observations must still count)", got)
	}
	if sum := h.Sum(); !math.IsNaN(sum) {
		t.Errorf("Sum = %v, want NaN (poisoned visibly, not silently dropped)", sum)
	}

	page := promPage(r)
	// NaN compares false with every bound, so it lands in the +Inf
	// bucket; -Inf is <= every bound, so it lands in the first.
	for _, want := range []string{
		`weird_seconds_bucket{le="1"} 1`,    // -Inf
		`weird_seconds_bucket{le="10"} 2`,   // cumulative: -Inf, 5
		`weird_seconds_bucket{le="+Inf"} 4`, // all of them
		"weird_seconds_sum NaN",
		"weird_seconds_count 4",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("prometheus page missing %q:\n%s", want, page)
		}
	}
}

func TestJSONSurvivesNonFiniteSums(t *testing.T) {
	r := NewRegistry()
	nan := r.MustHistogram("nan_hist", "", []float64{1}, Label{Key: "k", Value: "n"})
	pos := r.MustHistogram("inf_hist", "", []float64{1}, Label{Key: "k", Value: "p"})
	neg := r.MustHistogram("inf_hist", "", []float64{1}, Label{Key: "k", Value: "m"})
	nan.Observe(math.NaN())
	pos.Observe(math.Inf(1))
	neg.Observe(math.Inf(-1))

	raw := jsonPage(r)
	var doc map[string]struct {
		Count   uint64   `json:"count"`
		Sum     any      `json:"sum"`
		Buckets []uint64 `json:"buckets"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("JSON page unparseable with non-finite sums: %v\n%s", err, raw)
	}
	for key, wantSum := range map[string]string{
		`nan_hist{k="n"}`: "NaN",
		`inf_hist{k="p"}`: "+Inf",
		`inf_hist{k="m"}`: "-Inf",
	} {
		got, ok := doc[key]
		if !ok {
			t.Errorf("JSON page missing %q:\n%s", key, raw)
			continue
		}
		if got.Sum != wantSum {
			t.Errorf("%s sum = %v, want %q", key, got.Sum, wantSum)
		}
		if got.Count != 1 {
			t.Errorf("%s count = %d, want 1", key, got.Count)
		}
	}
}

// Hostile label values — quotes, backslashes, newlines — must escape
// cleanly in both encoders: the Prometheus page keeps its line grammar
// and the JSON document stays parseable, round-tripping the original
// value.
func TestHostileLabelValues(t *testing.T) {
	hostile := []string{
		`quote"inside`,
		`back\slash`,
		"new\nline",
		`all"three\of` + "\nthem",
	}
	r := NewRegistry()
	for i, v := range hostile {
		c := r.MustCounter("hostile_total", "Counter with hostile labels.",
			Label{Key: "v", Value: v})
		c.Add(uint64(i + 1))
	}

	page := promPage(r)
	for _, line := range strings.Split(page, "\n") {
		if strings.Count(line, "\n") != 0 {
			t.Fatalf("raw newline survived into a sample line: %q", line)
		}
	}
	for i, want := range []string{
		`hostile_total{v="quote\"inside"} 1`,
		`hostile_total{v="back\\slash"} 2`,
		`hostile_total{v="new\nline"} 3`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("case %d: prometheus page missing %q:\n%s", i, want, page)
		}
	}

	raw := jsonPage(r)
	var doc map[string]int64
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("JSON page unparseable with hostile labels: %v\n%s", err, raw)
	}
	if len(doc) != len(hostile) {
		t.Fatalf("JSON doc carries %d series, want %d:\n%s", len(doc), len(hostile), raw)
	}
	// The JSON keys reuse the canonical (escaped) sample identity; every
	// hostile value must appear in exactly one key with its value intact.
	for i := range hostile {
		found := false
		for _, v := range doc {
			if v == int64(i+1) {
				found = true
			}
		}
		if !found {
			t.Errorf("series %d missing from JSON doc:\n%s", i, raw)
		}
	}
}

// The escapes themselves, pinned directly.
func TestEscapeLabelValue(t *testing.T) {
	for in, want := range map[string]string{
		`plain`:  `plain`,
		`a"b`:    `a\"b`,
		`a\b`:    `a\\b`,
		"a\nb":   `a\nb`,
		"\\\"\n": `\\\"\n`,
		``:       ``,
	} {
		if got := escapeLabelValue(in); got != want {
			t.Errorf("escapeLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAppendJSONFloat(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{math.NaN(), `"NaN"`},
		{math.Inf(1), `"+Inf"`},
		{math.Inf(-1), `"-Inf"`},
		{1.5, "1.5"},
		{0, "0"},
	} {
		if got := string(appendJSONFloat(nil, tc.v)); got != tc.want {
			t.Errorf("appendJSONFloat(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
