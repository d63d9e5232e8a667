package trajectory

import (
	"fmt"
	"sync"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/sessions"
	"divscrape/internal/sitemodel"
	"divscrape/internal/uaparse"
	"divscrape/internal/workload"
)

// TrainConfig parameterises Train.
type TrainConfig struct {
	// Seed generates the training traffic; use a different seed from the
	// evaluation dataset so train and test are independent draws.
	Seed uint64
	// Duration is the training window. Default 12h — benign archetypes
	// (humans, declared crawlers, monitors) all cycle well inside a day,
	// and only their sessions feed the chain.
	Duration time.Duration
	// IdleTimeout matches the detector's sessionization. Default 30m.
	IdleTimeout time.Duration
	// MinSessionRequests is the request count below which a session is too
	// short to contribute an entropy sample (its transitions still count).
	// Default 6, matching the detector's warmup.
	MinSessionRequests int
}

// Train generates a labelled traffic window and fits the benign navigation
// model on it: Markov transition counts, session kind-entropy baseline and
// the benign content mix. Only events the detector would actually score
// feed the model — malicious actors, authenticated users and verified
// search crawlers are excluded, the latter two mirroring InspectInto's
// short-circuits so the baseline describes the population being judged.
func Train(cfg TrainConfig) (*Model, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 12 * time.Hour
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 30 * time.Minute
	}
	if cfg.MinSessionRequests <= 0 {
		cfg.MinSessionRequests = 6
	}
	gen, err := workload.NewGenerator(workload.Config{
		Seed:     cfg.Seed,
		Duration: cfg.Duration,
	})
	if err != nil {
		return nil, fmt.Errorf("trajectory: training generator: %w", err)
	}

	type trainSession struct {
		prev  int8 // previous PageKind, -1 before the first request
		count uint64
		kinds [sitemodel.KindCount]uint32
	}
	acc := &counts{}
	store, err := sessions.NewStore(sessions.Config[trainSession]{
		IdleTimeout: cfg.IdleTimeout,
		Init:        func(ts *trainSession, _ time.Time) { ts.prev = -1 },
		OnEvict: func(_ sessions.Key, ts *trainSession) {
			if ts.count >= uint64(cfg.MinSessionRequests) {
				acc.entropySum += kindEntropy(&ts.kinds)
				acc.entropyN++
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("trajectory: training store: %w", err)
	}

	// Training judges nothing, so it enriches without a decision core.
	enricher := detector.NewEnricher(iprep.BuildFeed())
	err = gen.Run(func(ev workload.Event) error {
		if ev.Label.Malicious() {
			return nil
		}
		req := enricher.Enrich(ev.Entry)
		if req.Entry.AuthUser != "" && req.Entry.AuthUser != "-" {
			return nil
		}
		if req.UA.Class == uaparse.ClassSearchBot && req.IPCat == iprep.SearchEngine {
			return nil
		}
		kind := req.Target.Kind
		ts, _ := store.Touch(req.SessionKey(), ev.Entry.Time)
		if ts.prev >= 0 {
			acc.trans[ts.prev][kind]++
		}
		ts.prev = int8(kind)
		ts.count++
		ts.kinds[kind]++
		switch {
		case kind == sitemodel.KindStatic:
			acc.assets++
		case kind.IsPage():
			acc.pages++
		case kind == sitemodel.KindPrice:
			acc.api++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("trajectory: training run: %w", err)
	}
	store.FlushAll()
	return acc.finalize()
}

// DefaultModelSeed seeds the shared default model's training workload. It
// is offset from the evaluation seeds the experiments use, keeping the
// default model an independent draw.
const DefaultModelSeed = 0x7261_6a65 // "raje"

var (
	defaultOnce  sync.Once
	defaultModel *Model
	defaultErr   error
)

// DefaultModel returns the process-wide benign model trained once with
// DefaultModelSeed, shared by every detector built without an explicit
// Config.Model (including all shards of a sharded pipeline).
func DefaultModel() (*Model, error) {
	defaultOnce.Do(func() {
		defaultModel, defaultErr = Train(TrainConfig{Seed: DefaultModelSeed})
	})
	return defaultModel, defaultErr
}
