// Package clockwork supplies deterministic time and randomness for the
// traffic simulator: a simulated clock and a seeded PRNG with the
// distributions the workload models need (exponential inter-arrivals,
// log-normal think times, Zipf popularity). Everything is reproducible
// from a single seed so experiments regenerate byte-identical datasets.
package clockwork

import (
	"math"
	"math/rand/v2"
	"time"
)

// Source abstracts "what time is it": the simulated Clock below for
// replays and tests, the system clock for live operation. Components that
// need periodic wall-clock work (the eviction sweeper, live metrics) take
// a Source so the same code path is deterministic under test and real in
// production.
type Source interface {
	Now() time.Time
}

// System returns the wall-clock Source backed by time.Now.
func System() Source { return systemSource{} }

type systemSource struct{}

func (systemSource) Now() time.Time { return time.Now() }

// Clock is a manually advanced simulated clock. The zero value is unusable;
// construct with NewClock.
type Clock struct {
	now time.Time
}

// NewClock returns a clock frozen at start.
func NewClock(start time.Time) *Clock {
	return &Clock{now: start}
}

// Now returns the current simulated instant.
func (c *Clock) Now() time.Time { return c.now }

// Advance moves the clock forward by d (negative d is ignored: simulated
// time never goes backwards).
func (c *Clock) Advance(d time.Duration) time.Time {
	if d > 0 {
		c.now = c.now.Add(d)
	}
	return c.now
}

// AdvanceTo moves the clock to t if t is later than now.
func (c *Clock) AdvanceTo(t time.Time) time.Time {
	if t.After(c.now) {
		c.now = t
	}
	return c.now
}

// Rand wraps a deterministic PRNG with the simulator's distributions.
// It is not safe for concurrent use; give each actor its own, derived
// from the run seed, so actors are independent streams.
type Rand struct {
	r *rand.Rand
}

// NewRand returns a PRNG seeded from two words. Distinct (seed, stream)
// pairs yield independent sequences.
func NewRand(seed, stream uint64) *Rand {
	return &Rand{r: rand.New(rand.NewPCG(seed, stream))}
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.r.Float64() }

// IntN returns a uniform value in [0, n). n must be positive.
func (r *Rand) IntN(n int) int { return r.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.r.Uint64() }

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.r.Float64() < p }

// Exp returns an exponentially distributed duration with the given mean;
// the inter-arrival law of a Poisson process.
func (r *Rand) Exp(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	u := r.r.Float64()
	for u == 0 {
		u = r.r.Float64()
	}
	d := time.Duration(-math.Log(u) * float64(mean))
	if d < 0 {
		return 0
	}
	return d
}

// LogNormal returns a log-normally distributed duration with the given
// median and sigma (dispersion of the underlying normal). Human think
// times are classically log-normal: many short gaps, a long tail.
func (r *Rand) LogNormal(median time.Duration, sigma float64) time.Duration {
	if median <= 0 {
		return 0
	}
	n := r.r.NormFloat64()
	d := time.Duration(float64(median) * math.Exp(sigma*n))
	if d < 0 {
		return 0
	}
	return d
}

// Jitter returns d scaled by a uniform factor in [1-f, 1+f]; f is clamped
// to [0, 1].
func (r *Rand) Jitter(d time.Duration, f float64) time.Duration {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	scale := 1 + f*(2*r.r.Float64()-1)
	return time.Duration(float64(d) * scale)
}

// Zipf draws from a Zipf distribution over [0, n) with exponent s > 1;
// product popularity in e-commerce catalogues is classically Zipfian.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf returns a Zipf sampler over [0, n).
func NewZipf(r *Rand, s float64, n uint64) *Zipf {
	if s <= 1 {
		s = 1.1
	}
	if n == 0 {
		n = 1
	}
	return &Zipf{z: rand.NewZipf(r.r, s, 1, n-1)}
}

// Next draws the next index.
func (z *Zipf) Next() uint64 { return z.z.Uint64() }

// WeightedChoice picks an index in proportion to the given non-negative
// weights. Returns 0 when all weights are zero.
func (r *Rand) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return 0
	}
	x := r.r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Diurnal modulates a base rate by the hour of day: traffic to consumer
// sites follows a day/night cycle with an evening peak. Returns a factor
// in [min, max] shaped as a cosine with its trough around 4am local time.
func Diurnal(t time.Time, min, max float64) float64 {
	if min > max {
		min, max = max, min
	}
	hour := float64(t.Hour()) + float64(t.Minute())/60
	// Trough at 04:00, peak at 16:00.
	phase := (hour - 4) / 24 * 2 * math.Pi
	shape := (1 - math.Cos(phase)) / 2 // 0 at trough, 1 at peak
	return min + (max-min)*shape
}
