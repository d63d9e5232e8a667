// Package workload synthesises the labelled Apache access-log dataset the
// evaluation runs on, playing the role of the proprietary Amadeus traffic
// the DSN 2018 paper analysed. It simulates an e-commerce site's clients as
// independent actors — human shoppers, benign bots, and five scraping
// archetypes — each a deterministic state machine over a seeded PRNG, and
// merges their request streams in timestamp order.
//
// Every emitted request carries a ground-truth label (actor id and
// archetype), which is exactly the labelling the paper names as its next
// step; the labels enable experiments E5-E10.
package workload

import (
	"container/heap"
	"errors"
	"fmt"
	"io"
	"iter"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/logfmt"
	"divscrape/internal/sitemodel"
)

// Event is one generated request with its ground truth.
type Event struct {
	// Entry is the access-log record.
	Entry logfmt.Entry
	// Label is the generating actor's identity.
	Label detector.Label
}

// Config parameterises a generation run.
type Config struct {
	// Seed makes the run reproducible; identical configs generate
	// byte-identical logs.
	Seed uint64
	// Start is the beginning of the capture window. The zero value
	// selects 2018-03-11 00:00 UTC, the paper's window.
	Start time.Time
	// Duration is the capture length. Zero selects 8 days (the paper's).
	Duration time.Duration
	// Site overrides the site model; nil selects sitemodel.DefaultConfig.
	Site *sitemodel.Site
	// Profile is the traffic mix. A zero profile selects
	// CalibratedProfile(1), the paper-shaped mix.
	Profile Profile
}

// DefaultStart is the beginning of the paper's capture window.
func DefaultStart() time.Time {
	return time.Date(2018, time.March, 11, 0, 0, 0, 0, time.UTC)
}

func (c *Config) applyDefaults() error {
	if c.Start.IsZero() {
		c.Start = DefaultStart()
	}
	if c.Duration <= 0 {
		c.Duration = 8 * 24 * time.Hour
	}
	if c.Site == nil {
		site, err := sitemodel.New(sitemodel.DefaultConfig())
		if err != nil {
			return fmt.Errorf("workload: default site: %w", err)
		}
		c.Site = site
	}
	if c.Profile.isZero() {
		c.Profile = CalibratedProfile(1)
	}
	return c.Profile.validate()
}

// Generator produces the event stream for one config.
type Generator struct {
	cfg Config
	end time.Time
}

// NewGenerator validates cfg and prepares a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg, end: cfg.Start.Add(cfg.Duration)}, nil
}

// Run streams every event in timestamp order to emit. It stops early and
// returns emit's error if emit fails.
func (g *Generator) Run(emit func(Event) error) error {
	actors := buildActors(g.cfg, g.end)
	h := make(actorHeap, 0, len(actors))
	for _, a := range actors {
		if !a.done && !a.cursorTime().After(g.end) {
			h = append(h, a)
		}
	}
	heap.Init(&h)

	var ev Event
	for h.Len() > 0 {
		a := h[0]
		more := a.produce(&ev)
		if err := emit(ev); err != nil {
			return err
		}
		if more && !a.cursorTime().After(g.end) {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return nil
}

// Generate collects the whole run in memory; convenient for tests and
// reduced-scale experiments.
func (g *Generator) Generate() ([]Event, error) {
	var out []Event
	err := g.Run(func(ev Event) error {
		out = append(out, ev)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Source is a generation run as a pipeline's entry source, with every
// request's ground truth by its stream position: Next yields the entries
// in timestamp order and io.EOF after the last, Label(seq) is the label of
// the entry Next yielded seq-th, counted from zero, and Stop ends a run
// its consumer abandons — call it once the run is over.
type Source struct {
	Next  func() (logfmt.Entry, error)
	Label func(seq uint64) detector.Label
	Stop  func()
}

// Source reads the generator's traffic as a Source, in the form a host
// needs. Without materialise, Next generates one event per call and none
// is held, and Label answers for the entry Next yielded last, whatever seq
// it is given: the labels of a host that judges every entry before it
// pulls the next, as the sequential pipeline does. With it, every event is
// generated up front and Label looks up any seq: what a host that judges
// out of stream order, the sharded pipeline, needs.
func (g *Generator) Source(materialise bool) (Source, error) {
	if materialise {
		events, err := g.Generate()
		if err != nil {
			return Source{}, fmt.Errorf("generate: %w", err)
		}
		i := 0
		next := func() (logfmt.Entry, error) {
			if i == len(events) {
				return logfmt.Entry{}, io.EOF
			}
			i++
			return events[i-1].Entry, nil
		}
		label := func(seq uint64) detector.Label { return events[seq].Label }
		return Source{Next: next, Label: label, Stop: func() {}}, nil
	}
	var genErr error
	pull, stop := iter.Pull(func(yield func(Event) bool) {
		genErr = g.Run(func(ev Event) error {
			if !yield(ev) {
				return errStopped
			}
			return nil
		})
	})
	var last detector.Label
	next := func() (logfmt.Entry, error) {
		ev, ok := pull()
		if !ok {
			if genErr != nil {
				return logfmt.Entry{}, fmt.Errorf("generate: %w", genErr)
			}
			return logfmt.Entry{}, io.EOF
		}
		last = ev.Label
		return ev.Entry, nil
	}
	return Source{Next: next, Label: func(uint64) detector.Label { return last }, Stop: stop}, nil
}

// errStopped ends a generation run whose consumer stopped pulling.
var errStopped = errors.New("stopped")

// actorHeap orders actors by their next event time, breaking ties by actor
// id so runs are deterministic regardless of heap internals.
type actorHeap []*scripted

func (h actorHeap) Len() int { return len(h) }
func (h actorHeap) Less(i, j int) bool {
	ti, tj := h[i].cursorTime(), h[j].cursorTime()
	if !ti.Equal(tj) {
		return ti.Before(tj)
	}
	return h[i].id < h[j].id
}
func (h actorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *actorHeap) Push(x any) { *h = append(*h, x.(*scripted)) }

func (h *actorHeap) Pop() any {
	old := *h
	n := len(old)
	a := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return a
}
