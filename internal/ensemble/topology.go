package ensemble

import (
	"fmt"

	"divscrape/internal/detector"
)

// DetectorCost is the per-detector inspection count of a topology run.
type DetectorCost struct {
	// Detector is the detector name.
	Detector string
	// Inspected is the number of requests this detector analysed.
	Inspected uint64
}

// SerialMode selects the short-circuit semantics of a serial arrangement.
type SerialMode int

const (
	// CascadeOR: the filter's alert is final (no second opinion needed to
	// raise an alarm); only traffic the filter passes clean reaches the
	// second detector. Equivalent decision to 1-out-of-2, but the second
	// detector inspects only part of the traffic.
	CascadeOR SerialMode = iota + 1
	// CascadeAND: only traffic the filter alerts on is escalated to the
	// second detector, and the alarm stands only if the second detector
	// confirms. Equivalent decision to 2-out-of-2 up to state effects,
	// with the second detector inspecting only suspect traffic.
	CascadeAND
)

// String returns the mode name.
func (m SerialMode) String() string {
	switch m {
	case CascadeOR:
		return "cascade-or"
	case CascadeAND:
		return "cascade-and"
	default:
		return fmt.Sprintf("serial-mode(%d)", int(m))
	}
}

// Serial arranges two detectors in a filter→analyzer chain.
//
// Note the behavioural subtlety the cost saving buys: the second detector
// only *sees* the subset of traffic forwarded to it, so its per-session
// state is built from partial history. Serial deployments are therefore
// not exactly equivalent to the corresponding vote over parallel
// deployments — quantifying that gap is experiment E7.
type Serial struct {
	filter   detector.Detector
	analyzer detector.Detector
	mode     SerialMode
	costs    [2]uint64
}

var _ detector.Detector = (*Serial)(nil)

// NewSerial builds a serial arrangement: filter inspects everything,
// analyzer inspects the subset selected by mode.
func NewSerial(filter, analyzer detector.Detector, mode SerialMode) (*Serial, error) {
	if filter == nil || analyzer == nil {
		return nil, fmt.Errorf("ensemble: serial topology needs two detectors")
	}
	if mode != CascadeOR && mode != CascadeAND {
		return nil, fmt.Errorf("ensemble: invalid serial mode %d", int(mode))
	}
	return &Serial{filter: filter, analyzer: analyzer, mode: mode}, nil
}

// Name implements detector.Detector.
func (s *Serial) Name() string {
	return fmt.Sprintf("serial/%s→%s/%s", s.filter.Name(), s.analyzer.Name(), s.mode)
}

// Inspect implements detector.Detector.
func (s *Serial) Inspect(req *detector.Request) detector.Verdict {
	first := s.filter.Inspect(req)
	s.costs[0]++
	switch s.mode {
	case CascadeOR:
		if first.Alert {
			return first
		}
		second := s.analyzer.Inspect(req)
		s.costs[1]++
		return second
	default: // CascadeAND
		if !first.Alert {
			return detector.Verdict{Score: first.Score}
		}
		second := s.analyzer.Inspect(req)
		s.costs[1]++
		if second.Alert {
			var reasons detector.ReasonList
			for i := 0; i < first.Reasons.Len(); i++ {
				reasons.Append(first.Reasons.At(i))
			}
			for i := 0; i < second.Reasons.Len(); i++ {
				reasons.Append(second.Reasons.At(i))
			}
			return detector.Verdict{
				Alert:   true,
				Score:   min(first.Score, second.Score),
				Reasons: reasons,
			}
		}
		return detector.Verdict{Score: min(first.Score, second.Score)}
	}
}

// InspectInto keeps the arrangement usable anywhere a detector.Detector
// is expected (a cascade can itself feed a pipeline).
func (s *Serial) InspectInto(req *detector.Request, out *detector.Verdict) {
	*out = s.Inspect(req)
}

// Cost reports how many requests each detector has inspected.
func (s *Serial) Cost() []DetectorCost {
	return []DetectorCost{
		{Detector: s.filter.Name(), Inspected: s.costs[0]},
		{Detector: s.analyzer.Name(), Inspected: s.costs[1]},
	}
}

// Reset implements detector.Detector; it clears the cost counters too.
func (s *Serial) Reset() {
	s.filter.Reset()
	s.analyzer.Reset()
	s.costs = [2]uint64{}
}
