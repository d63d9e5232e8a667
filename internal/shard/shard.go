// Package shard is the decision core every deployment shape wraps: one
// key-partition's detectors, its optional mitigation engine, and the step
// that strings them together — run the sides, classify the challenge
// flow, vote, apply the ladder, capture the flight record. The inline
// guard's shards and both pipeline loops call the same Judge and the same
// Sweep; a host owns only when to sweep, what to do with the outcome, and
// whether anything but its judging loop can reach the shard (the lock).
package shard

import (
	"fmt"
	"sync"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/ensemble"
	"divscrape/internal/fnvhash"
	"divscrape/internal/iprep"
	"divscrape/internal/mitigate"
	"divscrape/internal/sitemodel"
	"divscrape/internal/trace"
)

// Of is the partition function: a client's numeric address hashed onto one
// of n shards with FNV-1a. Every router — the pipeline's producer, the
// guard, state restore at another shard count — goes through it, so a
// client's requests and its restored state always meet on one shard.
// Addresses that are not IPv4 are 0 after enrichment and share Of(0, n).
func Of(ip uint32, n int) int { return int(fnvhash.IP32(ip) % uint32(n)) }

// OfKey routes a mitigation-engine key — the client address as text — to
// the shard that client's requests reach; ok is false when the key is not
// an IPv4 address (the index is then Of(0, n), as for its requests).
func OfKey(key string, n int) (i int, ok bool) {
	ip, err := iprep.ParseIPv4(key) // 0 on error
	return Of(ip, n), err == nil
}

// Flow is a request's role in the challenge protocol a challenge-capable
// policy hosts.
type Flow uint8

const (
	FlowNone   Flow = iota // ordinary traffic
	FlowScript             // a fetch of the challenge script: never counted against the client
	FlowVerify             // the solution beacon: it marks the challenge solved
)

// Outcome is what Judge decided beyond the verdicts.
type Outcome struct {
	// Flow is FlowNone unless the shard's policy can challenge.
	Flow Flow
	// Degraded reports that the request was not fully judged: a side sat
	// out behind the barrier (or the host never reached Judge at all).
	Degraded bool
	// Judged reports that the engine judged the request. It did not when
	// the shard has none, for the challenge flow's own requests, and for a
	// degraded request on a shard that refuses those — Ladder is then the
	// zero Allow and the flight record carries no ladder fields.
	Judged bool
	// Ladder is the engine's decision; RungBefore, read only when tracing,
	// the client's rung before it.
	Ladder     mitigate.Decision
	RungBefore mitigate.Action
}

// Shard is one key-partition of detection and enforcement state. It is
// single-threaded: a host that lets anything but its own judging loop
// reach it (the guard's handlers, the cluster plane's merges) brackets
// every use with Lock and Unlock. The exported fields below Engine are the
// host's to set before the first Judge.
type Shard struct {
	sync.Mutex
	// Dets are the judging sides; Engine the ladder, nil without a policy.
	Dets   []detector.Detector
	Engine *mitigate.Engine
	// Names labels the sides in flight records, aligned with Dets; Window
	// is the detector retention Sweep applies (non-positive: none); Tracer
	// records the detect and ensemble spans and owns the flight recorder
	// (nil: the disabled plane).
	Names  []string
	Window time.Duration
	Tracer *trace.Tracer
	// Barrier, when set, runs side i in place of a direct InspectInto and
	// reports whether a verdict was produced — where the guard's panic
	// barrier and quarantine plug in; it may replace Dets[i]. A side that
	// produced none sits out: its verdict is zeroed, the outcome Degraded.
	Barrier func(i int, req *detector.Request, v *detector.Verdict) bool
	// RefuseDegraded keeps a degraded judgement away from the engine: the
	// host refuses such requests, and a partial vote would charge the
	// client with verdicts one side never cast.
	RefuseDegraded bool
	// DeferCapture leaves the flight record to the host's own Capture call:
	// the ordered delivery records in stream order at its emitter.
	DeferCapture bool

	// challenge: only a challenge-capable policy hosts, and so exempts,
	// the challenge flow; under the others it is ordinary traffic.
	challenge bool
	verdicts  []detector.Verdict
	skipped   []bool
}

// New builds a shard judging with dets, under policy when non-nil.
func New(dets []detector.Detector, policy *mitigate.Policy) (*Shard, error) {
	s := &Shard{Dets: dets, verdicts: make([]detector.Verdict, len(dets)), skipped: make([]bool, len(dets))}
	if policy != nil {
		engine, err := mitigate.New(*policy)
		if err != nil {
			return nil, fmt.Errorf("mitigation engine: %w", err)
		}
		s.Engine, s.challenge = engine, engine.Policy().UsesChallenge()
	}
	return s, nil
}

// Verdicts is the verdict slab, one per side: the last Judge's,
// overwritten by the next.
func (s *Shard) Verdicts() []detector.Verdict { return s.verdicts }

// FlowOf classifies req against the challenge protocol by what the
// enricher derived — the path class sentinel judges by too, so the ladder
// and the detectors never disagree on what a beacon is.
func (s *Shard) FlowOf(req *detector.Request) Flow {
	switch {
	case !s.challenge:
	case req.Target.Kind == sitemodel.KindChallengeScript && req.Entry.Method == "GET":
		return FlowScript
	case req.Target.Kind == sitemodel.KindChallengeVerify && req.Entry.Method == "POST":
		return FlowVerify
	}
	return FlowNone
}

// Judge is the decision step: every side inspects req, the vote feeds the
// ladder — unless the request is the challenge flow's own, which must
// stay reachable and still updates detector state (sentinel's challenge
// tracking depends on seeing the beacon) — and the flight recorder is
// offered the result while the detectors' feature scratch still describes
// this request. Every field of *out is overwritten (a caller-owned value,
// as InspectInto's verdict is: the hot loops pass one they reuse). Steady
// state allocates nothing.
func (s *Shard) Judge(req *detector.Request, out *Outcome) {
	*out = Outcome{Flow: s.FlowOf(req)}
	tr := s.Tracer
	ts := tr.Now()
	for i := range s.verdicts {
		if s.Barrier == nil {
			s.Dets[i].InspectInto(req, &s.verdicts[i])
		} else if s.skipped[i] = !s.Barrier(i, req, &s.verdicts[i]); s.skipped[i] {
			s.verdicts[i] = detector.Verdict{}
			out.Degraded = true
		}
		ts = tr.LapDetector(i, ts)
	}
	if e := &req.Entry; s.Engine != nil {
		switch {
		case out.Flow == FlowScript:
		case out.Flow == FlowVerify:
			s.Engine.ChallengePassed(e.RemoteAddr, e.Time)
		case out.Degraded && s.RefuseDegraded:
		default:
			// Read only when tracing: the record reports rung-before →
			// rung-after, and a rise is the always-capture trigger.
			if tr != nil {
				out.RungBefore = s.Engine.Level(e.RemoteAddr)
			}
			out.Ladder = s.Engine.Apply(e.RemoteAddr, e.Time, ensemble.Assess(s.verdicts))
			out.Judged = true
		}
		tr.Lap(trace.StageEnsemble, ts)
	}
	if tr != nil && !s.DeferCapture {
		Capture(tr.Recorder(), s.Names, req, s.verdicts, s.Dets, s.skipped, out)
	}
}

// Capture offers one judged request to the flight recorder. dets are the
// instances that produced verdicts, asked for their feature vectors; nil
// when the caller is no longer synchronous with their scratch (the
// ordered delivery's emitter), and the record then carries verdicts and
// reasons only. No engine judged ⇒ no ladder fields.
func Capture(rec *trace.Recorder, names []string, req *detector.Request, verdicts []detector.Verdict,
	dets []detector.Detector, skipped []bool, out *Outcome) {
	j := trace.Judged{Req: req, Names: names, Verdicts: verdicts, Detectors: dets, Skipped: skipped}
	if out.Judged {
		j.Ladder, j.RungBefore = &out.Ladder, out.RungBefore
	}
	rec.Capture(&j)
}

// Sweep bounds the shard's state: the engine drops clients idle past its
// policy's IdleTTL, the detectors sessions untouched for Window. Both are
// decision-neutral — a swept client and an idle survivor are
// indistinguishable from their next request on — so when to sweep is the
// host's to choose. It returns the number of entries dropped.
func (s *Shard) Sweep(now time.Time) int {
	n := 0
	if s.Engine != nil {
		n = s.Engine.Sweep(now)
	}
	if s.Window > 0 {
		n += detector.EvictBefore(s.Dets, now.Add(-s.Window))
	}
	return n
}
