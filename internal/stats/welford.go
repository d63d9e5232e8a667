// Package stats provides the streaming statistics the detectors keep per
// client — running moments, decayed event rates, category counts and
// product-id sets — each summarising its features in one pass over the
// traffic.
//
// All types are plain value types safe for single-goroutine use; detectors
// own their statistics and the pipeline serialises access.
package stats

import "math"

// Welford accumulates count, mean and variance in one pass using Welford's
// online algorithm, which is numerically stable for long streams.
// The zero value is an empty accumulator ready for use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the running mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance, or 0 with fewer than two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CV returns the coefficient of variation (stddev/mean), the detector's
// preferred measure of inter-arrival regularity: robotic traffic has a CV
// near zero while human think times are heavily dispersed. Returns +Inf
// when the mean is zero but observations exist.
func (w *Welford) CV() float64 {
	if w.n == 0 {
		return 0
	}
	if w.mean == 0 {
		if w.m2 == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return w.StdDev() / math.Abs(w.mean)
}

// Merge folds another accumulator into this one (parallel Welford merge).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n1, n2 := float64(w.n), float64(o.n)
	delta := o.mean - w.mean
	total := n1 + n2
	w.mean += delta * n2 / total
	w.m2 += o.m2 + delta*delta*n1*n2/total
	w.n += o.n
}

// Reset returns the accumulator to its empty state.
func (w *Welford) Reset() { *w = Welford{} }
