package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"divscrape"
	"divscrape/internal/detector"
	"divscrape/internal/ensemble"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
	"divscrape/internal/pipeline"
	"divscrape/internal/sitemodel"
	"divscrape/internal/statecodec"
	"divscrape/internal/stream"
	"divscrape/internal/trace"
)

// relaxedFanout pins relaxed-paper's topology — parse workers and
// shards — whatever the host, so the record compares across machines.
const relaxedFanout = 2

// followWindow is follow-wide's eviction window, scrapedetect -follow's
// default.
const followWindow = 2 * time.Hour

// source selects how a replay workload turns the log file into entries.
type source int

const (
	sourceReader   source = iota // logfmt.Reader into the sequential pipeline
	sourceParallel               // logfmt.ParallelReader, relaxedFanout workers, into the relaxed pipeline
	sourceFollower               // stream.Follower draining a backlog into the sequential pipeline
)

// replayDef is a replay workload's topology: scrapedetect's wiring for
// one combination of flags, rebuilt from the same public calls.
type replayDef struct {
	detectors []string
	source    source
	// window, when positive, enables windowed eviction.
	window time.Duration
	// mitigate runs the graduated ladder in the sink.
	mitigate bool
}

// relaxed reports whether the topology is the relaxed sharded one.
func (d *replayDef) relaxed() bool { return d.source == sourceParallel }

// replaySystem is one freshly built pipeline (and ladder) — the state a
// scrapedetect process holds.
type replaySystem struct {
	def    *replayDef
	pipe   *pipeline.Pipeline
	dets   []detector.Detector
	ladder *ladder
}

// ladder is the mitigation half of scrapedetect's sink: a majority vote
// confirms, the graduated engine escalates, and an event-time sweeper
// bounds the engine's state on the pipeline's window.
type ladder struct {
	engine  *mitigate.Engine
	sweeper *stream.Sweeper
	quorum  ensemble.KOutOfN
}

func newLadder(detectors int, window time.Duration) (*ladder, error) {
	l := &ladder{quorum: ensemble.KOutOfN{K: detectors/2 + 1}}
	var err error
	if l.engine, err = mitigate.New(mitigate.Graduated()); err != nil {
		return nil, err
	}
	if window > 0 {
		if l.sweeper, err = stream.NewSweeper(window, 0, nil); err != nil {
			return nil, err
		}
		l.sweeper.Register("mitigate", l.engine)
	}
	return l, nil
}

// judge adjudicates one decision and feeds the ladder.
func (l *ladder) judge(e *logfmt.Entry, verdicts []detector.Verdict, votes int) {
	l.apply(e, verdicts, votes > 0, l.quorum.Decide(verdicts).Alert)
}

// apply feeds one adjudicated request to the engine. The challenge flow
// is exempt: script fetches never count against the client, beacons mark
// the challenge solved.
func (l *ladder) apply(e *logfmt.Entry, verdicts []detector.Verdict, alerted, confirmed bool) {
	if l.sweeper != nil {
		l.sweeper.Observe(e.Time)
	}
	switch {
	case e.Path == sitemodel.ChallengeScriptPath:
	case e.Path == sitemodel.ChallengeVerifyPath && e.Method == "POST":
		l.engine.ChallengePassed(e.RemoteAddr, e.Time)
	default:
		var sum float64
		for i := range verdicts {
			sum += verdicts[i].Score
		}
		l.engine.Apply(e.RemoteAddr, e.Time, mitigate.Assessment{
			Alerted:   alerted,
			Confirmed: confirmed,
			Score:     sum / float64(len(verdicts)),
		})
	}
}

// buildDetectors resolves names through the facade's registry.
func buildDetectors(names []string) ([]detector.Detector, []detector.Factory, error) {
	facts, err := divscrape.FactoriesFor(names...)
	if err != nil {
		return nil, nil, err
	}
	dets := make([]detector.Detector, len(facts))
	for i, f := range facts {
		if dets[i], err = f(); err != nil {
			return nil, nil, err
		}
	}
	return dets, facts, nil
}

// build constructs the system; tracer is nil except where the tracing
// plane's own cost is being measured.
func (d *replayDef) build(tracer *trace.Tracer) (*replaySystem, error) {
	dets, facts, err := buildDetectors(d.detectors)
	if err != nil {
		return nil, err
	}
	cfg := pipeline.Config{
		Detectors:   dets,
		Factories:   facts,
		Reputation:  iprep.BuildFeed(),
		Mode:        pipeline.Sequential,
		EvictWindow: d.window,
		Trace:       tracer,
	}
	if d.relaxed() {
		cfg.Mode, cfg.Shards = pipeline.ShardedRelaxed, relaxedFanout
	}
	s := &replaySystem{def: d, dets: dets}
	if s.pipe, err = pipeline.New(cfg); err != nil {
		return nil, err
	}
	if d.mitigate {
		if s.ladder, err = newLadder(len(dets), d.window); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// sink builds the decision sink filling agree.
func (s *replaySystem) sink(agree *agreement) pipeline.Sink {
	if s.ladder == nil {
		return func(d pipeline.Decision) error {
			agree.add(d.Verdicts)
			return nil
		}
	}
	return func(d pipeline.Decision) error {
		s.ladder.judge(&d.Req.Entry, d.Verdicts, agree.add(d.Verdicts))
		return nil
	}
}

// run takes the log at path through the system once: first byte read to
// last decision sunk.
func (s *replaySystem) run(path string) (*outcome, error) {
	out := &outcome{agree: newAgreement(len(s.dets))}
	ctx := context.Background()
	if s.def.source == sourceFollower {
		// A backlog already on disk with Stop set: the follower reads to
		// the end and reports EOF, as a restarted -follow catches up.
		fol, err := stream.NewFollower(stream.FollowerConfig{Path: path})
		if err != nil {
			return nil, err
		}
		defer fol.Close()
		fol.Stop()
		if err := s.pipe.Run(ctx, fol.Next, s.sink(out.agree)); err != nil {
			return nil, err
		}
		out.skipped = fol.Stats().Skipped
		return s.finish(out), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if s.def.source == sourceReader {
		lr := logfmt.NewReader(f, logfmt.ReaderConfig{Policy: logfmt.Skip})
		if err := s.pipe.Run(ctx, lr.Next, s.sink(out.agree)); err != nil {
			return nil, err
		}
		out.skipped = uint64(lr.Skipped())
		return s.finish(out), nil
	}
	plr := logfmt.NewParallelReader(f, logfmt.ParallelConfig{Policy: logfmt.Skip, Workers: relaxedFanout})
	defer plr.Close()
	src := func() (logfmt.Entry, error) {
		var e logfmt.Entry
		err := plr.NextInto(&e)
		return e, err
	}
	// Shards deliver into private tables merged afterwards, as
	// scrapedetect -mode relaxed does.
	parts := make([]*agreement, s.pipe.Shards())
	sinks := make([]pipeline.Sink, len(parts))
	for i := range sinks {
		parts[i] = newAgreement(len(s.dets))
		sinks[i] = s.sink(parts[i])
	}
	if err := s.pipe.RunRelaxed(ctx, src, sinks); err != nil {
		return nil, err
	}
	for _, p := range parts {
		out.agree.merge(p)
	}
	out.skipped = uint64(plr.Skipped())
	return s.finish(out), nil
}

// finish adds the ladder's tally to a pass's outcome.
func (s *replaySystem) finish(out *outcome) *outcome {
	if s.ladder != nil {
		out.actions = s.ladder.engine.Counts()
	}
	return out
}

// snapshot serialises everything the system holds, in scrapedetect's
// state-file layout.
func (s *replaySystem) snapshot(w *statecodec.Writer) error {
	if err := s.pipe.Checkpoint(w); err != nil {
		return err
	}
	w.Bool(s.ladder != nil)
	if s.ladder != nil {
		s.ladder.engine.SnapshotInto(w)
	}
	return w.Err()
}

// restore loads a snapshot into this (fresh) system.
func (s *replaySystem) restore(r *statecodec.Reader) error {
	if err := s.pipe.ResumeFrom(r); err != nil {
		return err
	}
	if has := r.Bool(); has != (s.ladder != nil) {
		return fmt.Errorf("snapshot mitigation state = %v, system has a ladder = %v", has, s.ladder != nil)
	}
	if s.ladder != nil {
		if err := s.ladder.engine.RestoreFrom(r); err != nil {
			return err
		}
	}
	return r.Err()
}
