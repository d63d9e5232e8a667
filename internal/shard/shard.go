// Package shard is the decision core every deployment shape wraps: one
// key-partition's enricher, detectors and optional mitigation engine, and
// the step that strings them together — run the sides behind the failure
// plane (failure.go), classify the challenge flow, vote, apply the ladder,
// capture the flight record. The inline guard's shards and both pipeline
// loops call the same Enrich, Judge and Sweep; a host owns only how it
// numbers the stream, when to sweep, what to do with the outcome and a
// quarantine, and whether anything but its judging loop can reach the
// shard (the lock).
package shard

import (
	"fmt"
	"sync"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/ensemble"
	"divscrape/internal/faultinject"
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

// OfKey routes a client address as text — a log line's, or a
// mitigation-engine key — to its shard, before any enrichment; ok is false
// when the key is not an IPv4 address (the index is then Of(0, n), as for
// its requests). It allocates nothing.
func OfKey(key string, n int) (i int, ok bool) {
	ip, ok := iprep.IPv4(key) // 0 unless ok
	return Of(ip, n), ok
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
	// out, quarantined (or the host never reached Judge at all).
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

// Shard is one key-partition of enrichment, detection and enforcement
// state. It is single-threaded: a host that lets anything but its own
// judging loop reach it (the guard's handlers, the cluster plane's merges)
// brackets every use with Lock and Unlock. The exported fields below
// Engine are the host's to set before the first Judge.
type Shard struct {
	sync.Mutex
	// Dets are the judging sides, Names their names; Engine the ladder,
	// nil without a policy.
	Dets   []detector.Detector
	Names  []string
	Engine *mitigate.Engine
	// Index is the shard's place in its host's set; Window the detector
	// retention Sweep applies (non-positive: none); Tracer records the
	// detect and ensemble spans and owns the flight recorder (nil: the
	// disabled plane); Backoff the quarantine backoff base (New: 30 s).
	Index   int
	Window  time.Duration
	Tracer  *trace.Tracer
	Backoff time.Duration
	// OnHealth, when set, hears side i quarantined by p at event time at,
	// or restored (p nil), under the shard's exclusion.
	OnHealth func(i int, at time.Time, p *PanicError)
	// RefuseDegraded keeps a degraded judgement away from the engine: the
	// host refuses such requests, and a partial vote would charge the
	// client with verdicts one side never cast.
	RefuseDegraded bool
	// DeferCapture leaves the flight record to the host's own Capture call:
	// the ordered delivery records in stream order at its emitter.
	DeferCapture bool

	// enr enriches the requests this shard judges: only its own clients'
	// addresses reach its tables, which expire on the sides' longest idle
	// timeout, and on Window when Sweep runs.
	enr *detector.Enricher
	// challenge: only a challenge-capable policy hosts, and so exempts,
	// the challenge flow; under the others it is ordinary traffic.
	challenge bool
	verdicts  []detector.Verdict
	skipped   []bool
	// factories rebuild a quarantined side; faults are the sides'
	// shard.inspect.<name> points; health is the failure plane's slab and
	// sick the number of its sides out of service.
	factories []detector.Factory
	faults    []*faultinject.Point
	health    []sideHealth
	sick      int
}

// New builds a shard enriching against rep (nil: no reputation) and
// judging under policy (nil: none) with dets, one per factory, or when nil
// with instances the factories build — as they rebuild a quarantined side.
func New(factories []detector.Factory, dets []detector.Detector, policy *mitigate.Policy, rep *iprep.DB) (*Shard, error) {
	if dets == nil {
		var err error
		if dets, err = detector.Build(factories); err != nil {
			return nil, err
		}
	}
	if len(dets) == 0 || len(dets) != len(factories) {
		return nil, fmt.Errorf("%d detectors for %d factories, need one each and at least one", len(dets), len(factories))
	}
	n := len(dets)
	s := &Shard{Dets: dets, Names: make([]string, n), Backoff: 30 * time.Second, enr: detector.NewEnricher(rep, dets...),
		verdicts: make([]detector.Verdict, n), skipped: make([]bool, n),
		factories: factories, faults: make([]*faultinject.Point, n), health: make([]sideHealth, n)}
	for i, d := range dets {
		if d == nil {
			return nil, fmt.Errorf("detector %d is nil", i)
		}
		s.Names[i] = d.Name()
		s.faults[i] = faultinject.At("shard.inspect." + s.Names[i])
	}
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

// Skipped marks the sides that sat out the last Judge, as Verdicts.
func (s *Shard) Skipped() []bool { return s.skipped }

// Enrich overwrites every field of *req below Entry with what the shard's
// enricher derives from req.Entry; the host has set Entry and Seq, the
// request's position in its stream.
func (s *Shard) Enrich(req *detector.Request) { s.enr.Fill(req) }

// FlowOf classifies a request against the challenge protocol by its path
// class and method — the class the enricher derives and sentinel judges
// by, so the ladder and the detectors never disagree on what a beacon is.
func (s *Shard) FlowOf(kind sitemodel.PageKind, method string) Flow {
	switch {
	case !s.challenge:
	case kind == sitemodel.KindChallengeScript && method == "GET":
		return FlowScript
	case kind == sitemodel.KindChallengeVerify && method == "POST":
		return FlowVerify
	}
	return FlowNone
}

// Judge is the decision step: every side inspects req behind the failure
// plane, the vote feeds the ladder — unless the request is the challenge
// flow's own, which must stay reachable and still updates detector state
// (sentinel's challenge tracking depends on seeing the beacon) — and the
// flight recorder is offered the result while the detectors' feature
// scratch still describes this request. Every field of *out is
// overwritten (a caller-owned value, as InspectInto's verdict is: the hot
// loops pass one they reuse). Steady state allocates nothing.
func (s *Shard) Judge(req *detector.Request, out *Outcome) {
	*out = Outcome{Flow: s.FlowOf(req.Target.Kind, req.Entry.Method)}
	tr := s.Tracer
	ts := tr.Now()
	for i := 0; i < len(s.verdicts); {
		i = s.inspect(req, out, i, &ts)
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
// policy's IdleTTL, the detectors sessions and the enricher addresses
// untouched for Window. All are decision-neutral — a swept client and an
// idle survivor are indistinguishable from their next request on — so
// when to sweep is the host's to choose. It returns the number of detector
// and ladder entries dropped; the enricher's records, a cache, are not
// counted. The enricher needs no sweep to stay bounded — it expires its
// addresses on its own horizon (detector.NewEnricher) — but a Window
// shorter than that takes them at the sweep, with the detectors' state.
func (s *Shard) Sweep(now time.Time) int {
	n := 0
	if s.Engine != nil {
		n = s.Engine.Sweep(now)
	}
	if s.Window > 0 {
		cut := now.Add(-s.Window)
		n += detector.EvictBefore(s.Dets, cut)
		s.enr.EvictBefore(cut)
	}
	return n
}

// Reset clears the shard's enricher, detector, ladder and failure-plane
// state, restore points included, for an independent dataset.
func (s *Shard) Reset() {
	s.enr.Reset()
	clear(s.health)
	s.sick = 0
	clear(s.skipped)
	for _, d := range s.Dets {
		d.Reset()
	}
	if s.Engine != nil {
		s.Engine.Reset()
	}
}
