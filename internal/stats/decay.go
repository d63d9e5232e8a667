package stats

import (
	"math"
	"time"

	"divscrape/internal/instant"
)

// HalfLife is a DecayRate's parameter: how long it takes a historical
// burst to lose half its weight. One value serves every estimator its
// owner keeps.
type HalfLife struct {
	d time.Duration
}

// NewHalfLife returns the parameter for half-life d. Non-positive d
// defaults to one minute.
func NewHalfLife(d time.Duration) HalfLife {
	if d <= 0 {
		d = time.Minute
	}
	return HalfLife{d: d}
}

// DecayRate is a time-decayed event-rate estimator: it answers "how many
// events per second is this client generating right now?" with exponential
// decay over a half-life, so bursts age out smoothly. It is the request
// rate arcane, the behavioural detector, scores as a feature. It holds
// only its state, so a per-client record embeds it at 24 bytes; the
// half-life is passed to every call and must be the same on every call
// on one estimator.
type DecayRate struct {
	rate float64 // events per second
	last int64   // instant of the last decay; instant.Never until an event
	seen bool
}

// NewDecayRate returns an estimator that has seen no event.
func NewDecayRate() DecayRate {
	return DecayRate{last: instant.Never}
}

// Observe records one event at time now and returns the decayed rate
// estimate in events per second.
func (d *DecayRate) Observe(h *HalfLife, now time.Time) float64 {
	return d.ObserveN(h, now, 1)
}

// ObserveN records n simultaneous events at time now.
func (d *DecayRate) ObserveN(h *HalfLife, now time.Time, n float64) float64 {
	at := instant.Of(now)
	if !d.seen {
		d.seen = true
		d.last = at
		d.rate = 0
	} else if dt := instant.Sub(at, d.last).Seconds(); dt > 0 {
		decay := math.Exp2(-dt / h.d.Seconds())
		d.rate *= decay
		d.last = at
	}
	// An event contributes weight spread over the half-life window.
	d.rate += n * math.Ln2 / h.d.Seconds()
	return d.rate
}

// Rate returns the decayed rate as of time now without recording an event.
func (d *DecayRate) Rate(h *HalfLife, now time.Time) float64 {
	if !d.seen {
		return 0
	}
	dt := instant.Sub(instant.Of(now), d.last).Seconds()
	if dt <= 0 {
		return d.rate
	}
	return d.rate * math.Exp2(-dt/h.d.Seconds())
}

// Reset clears the estimator.
func (d *DecayRate) Reset() { *d = NewDecayRate() }
