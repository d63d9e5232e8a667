// Package metrics is the observability surface of the live system: a
// small, dependency-free instrument set (counters, gauges, histograms and
// read-only callback gauges) collected in a Registry that encodes to the
// Prometheus text exposition format and to JSON.
//
// The design target is a long-running guard serving heavy traffic, so
// both halves of the API are allocation-free in steady state:
//
//   - Update side: every instrument is one or a few atomics. Counter.Add,
//     Gauge.Set and Histogram.Observe never allocate and never take a
//     lock, so they can sit directly on the request hot path.
//
//   - Scrape side: all metric names, label sets and histogram bucket
//     prefixes are serialised once at registration; an encode pass only
//     appends those pre-built byte slices and strconv-formatted values
//     into a reused buffer. After the first scrape has grown the buffer,
//     WritePrometheus and WriteJSON perform zero allocations — guarded
//     by an alloc-regression test, because a scraper polling every few
//     seconds for weeks must not become a garbage source.
//
// Registration is expected at construction time (Must* helpers panic on
// invalid or duplicate names, like expvar); updates and scrapes may then
// proceed concurrently from any goroutine.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64 metric (live session counts, queue depths,
// shard counts). The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets with cumulative
// Prometheus semantics ("le" upper bounds) plus a running sum. Bounds are
// fixed at registration; Observe is a binary search plus two atomic adds,
// allocation- and lock-free.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; the implicit +Inf bucket is
	// index len(bounds).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Label is one name="value" pair attached to an instrument.
type Label struct {
	Key, Value string
}

// kind is the Prometheus metric type of a family.
type kind uint8

const (
	kindCounter kind = iota + 1
	kindGauge
	kindHistogram
)

var kindNames = [...]string{"", "counter", "gauge", "histogram"}

// instrument is one sample series inside a family: the precomputed sample
// prefix plus a read function. read must be cheap and allocation-free.
type instrument struct {
	// promPrefix is `name{labels} ` (or `name ` unlabelled), ready to
	// append before the value.
	promPrefix []byte
	// jsonKey is the JSON object key (full sample name), quoted.
	jsonKey []byte
	// readInt reads the value for counter/gauge kinds.
	readInt func() int64
	// hist, for histogram kind, is the backing histogram; bucketPrefixes
	// align with hist.buckets (the +Inf bucket last).
	hist           *Histogram
	bucketPrefixes [][]byte
	sumPrefix      []byte
	countPrefix    []byte
}

// family groups the instruments sharing one metric name.
type family struct {
	name   string
	help   string
	kind   kind
	header []byte // "# HELP ...\n# TYPE ...\n"
	series []*instrument
}

// Registry holds an ordered set of metric families and encodes them. The
// zero value is unusable; construct with NewRegistry. Registration and
// encoding lock internally; instrument updates never do.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	seen     map[string]bool // full sample names, for duplicate detection
	buf      []byte          // reused encode buffer for the Write* forms
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}, seen: map[string]bool{}}
}

// MustCounter registers and returns a counter. It panics on an invalid or
// duplicate name+labels combination — metric registration is programmer
// intent, not runtime input.
func (r *Registry) MustCounter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	inst := &instrument{readInt: func() int64 { return int64(c.v.Load()) }}
	r.mustRegister(name, help, kindCounter, inst, labels)
	return c
}

// MustGauge registers and returns a settable gauge.
func (r *Registry) MustGauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	inst := &instrument{readInt: func() int64 { return g.v.Load() }}
	r.mustRegister(name, help, kindGauge, inst, labels)
	return g
}

// MustGaugeFunc registers a read-only gauge backed by fn, the bridge to
// state that already has its own source of truth (an atomic counter on a
// guard shard, a store's Len). fn is called on every scrape under the
// registry lock; it must be cheap, allocation-free and safe to call
// concurrently with the rest of the program.
func (r *Registry) MustGaugeFunc(name, help string, fn func() int64, labels ...Label) {
	if fn == nil {
		panic("metrics: MustGaugeFunc requires a read function")
	}
	r.mustRegister(name, help, kindGauge, &instrument{readInt: fn}, labels)
}

// MustCounterFunc registers a read-only counter backed by fn; same
// contract as MustGaugeFunc, for values that only grow.
func (r *Registry) MustCounterFunc(name, help string, fn func() uint64, labels ...Label) {
	if fn == nil {
		panic("metrics: MustCounterFunc requires a read function")
	}
	r.mustRegister(name, help, kindCounter, &instrument{readInt: func() int64 { return int64(fn()) }}, labels)
}

// MustHistogram registers and returns a histogram with the given ascending
// bucket upper bounds (the +Inf bucket is implicit).
func (r *Registry) MustHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("metrics: histogram %s bounds must ascend (bound %d)", name, i))
		}
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	inst := &instrument{hist: h}
	r.mustRegister(name, help, kindHistogram, inst, labels)
	return h
}

// mustRegister validates and wires an instrument into its family.
func (r *Registry) mustRegister(name, help string, k kind, inst *instrument, labels []Label) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("metrics: metric %s: invalid label name %q", name, l.Key))
		}
	}
	// Stable label order makes the sample identity canonical.
	labels = append([]Label(nil), labels...)
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })

	sample := sampleName(name, labels)

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[sample] {
		panic(fmt.Sprintf("metrics: duplicate registration of %s", sample))
	}
	r.seen[sample] = true

	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k}
		f.header = appendHeader(nil, name, help, k)
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != k {
		panic(fmt.Sprintf("metrics: metric %s registered as both %s and %s",
			name, kindNames[f.kind], kindNames[k]))
	}

	inst.jsonKey = appendJSONString(nil, sample)
	if k == kindHistogram {
		h := inst.hist
		inst.bucketPrefixes = make([][]byte, len(h.buckets))
		for i := range h.bounds {
			inst.bucketPrefixes[i] = samplePrefix(name+"_bucket", withLE(labels, h.bounds[i], false))
		}
		inst.bucketPrefixes[len(h.bounds)] = samplePrefix(name+"_bucket", withLE(labels, 0, true))
		inst.sumPrefix = samplePrefix(name+"_sum", labels)
		inst.countPrefix = samplePrefix(name+"_count", labels)
	} else {
		inst.promPrefix = samplePrefix(name, labels)
	}
	f.series = append(f.series, inst)
}

// withLE appends the le label (Prometheus bucket bound) to a label set.
func withLE(labels []Label, bound float64, inf bool) []Label {
	v := "+Inf"
	if !inf {
		v = formatFloat(bound)
	}
	out := append(append([]Label(nil), labels...), Label{Key: "le", Value: v})
	return out
}

// validName enforces the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
