package bayes

import (
	"fmt"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/sessions"
	"divscrape/internal/workload"
)

// TrainConfig parameterises Train.
type TrainConfig struct {
	// Seed generates the training traffic; use a different seed from the
	// evaluation dataset so train and test are independent draws.
	Seed uint64
	// Duration is the training window. Default 24h — long enough that
	// every archetype's duty cycle produces sessions; shorter windows
	// risk leaving whole archetypes out of the training distribution.
	Duration time.Duration
	// SampleEvery takes a training observation from each live session
	// every N requests, so long sessions contribute their evolving state
	// rather than one final snapshot. Default 20.
	SampleEvery int
	// IdleTimeout matches the detector's sessionization. Default 30m.
	IdleTimeout time.Duration
}

// Train generates a labelled traffic window and fits a Naive Bayes model
// on per-session feature snapshots. The returned model is independent of
// the evaluation dataset so long as the seed differs.
func Train(cfg TrainConfig) (*Model, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 24 * time.Hour
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 20
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 30 * time.Minute
	}
	gen, err := workload.NewGenerator(workload.Config{
		Seed:     cfg.Seed,
		Duration: cfg.Duration,
	})
	if err != nil {
		return nil, fmt.Errorf("bayes: training generator: %w", err)
	}

	type trainSession struct {
		session
		malicious bool
	}
	model := &Model{}
	sample := func(ts *trainSession) {
		model.Update(ts.session.vector(), ts.malicious)
	}
	store, err := sessions.NewStore(sessions.Config[trainSession]{
		IdleTimeout: cfg.IdleTimeout,
		Init:        func(ts *trainSession, now time.Time) { ts.firstSec, ts.firstNsec = now.Unix(), int32(now.Nanosecond()) },
		OnEvict: func(_ sessions.Key, ts *trainSession) {
			if ts.count >= 3 {
				sample(ts)
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("bayes: training store: %w", err)
	}

	// Training judges nothing, so it enriches without a decision core.
	enricher := detector.NewEnricher(nil)
	err = gen.Run(func(ev workload.Event) error {
		req := enricher.Enrich(ev.Entry)
		now := ev.Entry.Time
		ts, fresh := store.Touch(req.SessionKey(), now)
		ts.malicious = ev.Label.Malicious()
		observe(&ts.session, &req, now, fresh)
		if ts.count%uint64(cfg.SampleEvery) == 0 {
			sample(ts)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bayes: training run: %w", err)
	}
	store.FlushAll()
	if !model.Trained() {
		return nil, fmt.Errorf("bayes: training window produced no observations for both classes")
	}
	return model, nil
}
