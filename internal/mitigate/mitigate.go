// Package mitigate turns adjudicated detection verdicts into graduated
// enforcement actions. It is the response plane the DSN 2018 paper stops
// short of: the paper's two tools *detect* malicious scraping, while the
// products they model exist to *respond*. The engine folds the per-request
// decision stream into per-client enforcement state and emits one of four
// actions, ordered by severity:
//
//	Allow → Tarpit (delay the response) → Challenge (require the
//	JavaScript challenge) → Block (refuse with 403)
//
// # The escalation ladder
//
// Every request contributes its adjudicated suspicion to a per-client
// score that decays exponentially with a configurable half-life, so a
// client's standing is a leaky integral of recent behaviour rather than a
// one-shot verdict. Rising score climbs the ladder one rung per request —
// a client is never hard-blocked without first having been slowed and
// challenged — and falling score descends it with hysteresis: the score
// must drop Policy.Hysteresis below a rung's threshold before the client
// de-escalates, which keeps borderline clients from flapping between
// actions. A client that goes quiet decays back toward Allow on its own;
// one that ignores Policy.ChallengeBudget consecutive challenges is
// escalated to Block without waiting for its score, and a solved
// challenge (ChallengePassed) earns a pass window during which the
// Challenge rung is skipped and the score is halved.
//
// # Determinism contract
//
// The engine never reads the wall clock and never draws randomness: every
// transition is a pure function of the policy and the sequence of
// (key, now, Assessment) triples handed to Apply and ChallengePassed, with
// caller-supplied timestamps. Feeding the same decision stream (as the
// simulated-clock workloads do) therefore produces a byte-identical action
// stream, which is what makes the containment experiments in
// internal/experiments reproducible from their seed. An Engine is
// single-threaded by design — httpguard gives each of its key-partitioned
// shards a private engine, mirroring how detector state is sharded.
package mitigate

import (
	"fmt"
	"math"
	"time"

	"divscrape/internal/instant"
	"divscrape/internal/slab"
)

// Action is one rung of the enforcement ladder, ordered by severity.
type Action uint8

const (
	// Allow serves the request untouched.
	Allow Action = iota
	// Tarpit serves the request after Decision.Delay, soaking the
	// client's request budget without revealing enforcement.
	Tarpit
	// Challenge withholds content and serves the JavaScript challenge
	// interstitial instead; solving it (ChallengePassed) de-escalates.
	Challenge
	// Block refuses the request outright (403).
	Block
)

var actionNames = [...]string{"allow", "tarpit", "challenge", "block"}

// String returns the action's stable lower-case name.
func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// Assessment is the adjudicated detection outcome for one request — the
// bridge between the detector/ensemble plane and the response plane. The
// caller chooses the adjudication (1-out-of-2, 2-out-of-2, weighted
// fusion); the engine only consumes its result.
type Assessment struct {
	// Alerted is the adjudicated alert (e.g. K-out-of-N over detectors).
	Alerted bool
	// Confirmed reports unanimous agreement (the paper's
	// minimum-false-alarm scheme); static block policies can require it.
	Confirmed bool
	// Score is the fused suspicion in [0, 1]; graduated policies
	// integrate it over time.
	Score float64
}

// Decision is what the engine tells the enforcement point to do with one
// request.
type Decision struct {
	// Action is the enforcement outcome.
	Action Action
	// Delay is how long to stall the response; set only for Tarpit.
	Delay time.Duration
	// Tagged reports that the request should carry the verdict header so
	// the application can degrade (serve cached prices, hide inventory).
	Tagged bool
	// Level is the client's steady-state ladder rung after this request.
	// It can differ from Action: a challenge-exempt client at the
	// Challenge rung is tarpitted instead.
	Level Action
	// Score is the client's decayed suspicion after this request.
	Score float64
}

// Mode selects the enforcement style a Policy implements.
type Mode uint8

const (
	// ModeObserve never interferes: every decision is a plain Allow.
	ModeObserve Mode = iota + 1
	// ModeTag allows everything but marks adjudicated alerts Tagged.
	ModeTag
	// ModeStaticBlock is the classic binary switch: Block on alert
	// (or on confirmation only), Allow otherwise. Stateless.
	ModeStaticBlock
	// ModeGraduated is the score-driven escalation ladder.
	ModeGraduated
)

var modeNames = map[Mode]string{
	ModeObserve:     "observe",
	ModeTag:         "tag",
	ModeStaticBlock: "block",
	ModeGraduated:   "graduated",
}

// String returns the mode's stable name.
func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Policy parameterises the engine. Construct with one of the policy
// helpers (Observe, Tag, StaticBlock, Graduated) and override fields as
// needed; the zero Policy is invalid.
type Policy struct {
	// Mode selects the enforcement style.
	Mode Mode
	// BlockOnConfirmedOnly, with ModeStaticBlock, blocks only unanimously
	// confirmed requests and tags single-tool alerts — the serial
	// confirmation deployment the paper sketches.
	BlockOnConfirmedOnly bool

	// Graduated-ladder parameters (ignored by the static modes).

	// ScoreHalfLife is the decay half-life of the per-client suspicion
	// integral. Default 10 minutes.
	ScoreHalfLife time.Duration
	// BenignWeight scales the score contribution of non-alerted requests,
	// so sub-threshold suspicion still accumulates, just slowly. Zero is
	// honoured (benign requests contribute nothing); the Graduated
	// constructor sets 0.25.
	BenignWeight float64
	// TarpitThreshold is the score at which responses start being
	// delayed. Default 0.8.
	TarpitThreshold float64
	// ChallengeThreshold is the score at which content is withheld behind
	// the JavaScript challenge. Default 1.6.
	ChallengeThreshold float64
	// BlockThreshold is the score at which requests are refused.
	// Default 2.6.
	BlockThreshold float64
	// ScoreCap bounds the suspicion integral so decay back to Allow takes
	// bounded time. Default 4.
	ScoreCap float64
	// Hysteresis is how far the score must fall below a rung's threshold
	// before the client de-escalates. Zero is honoured (no band); the
	// Graduated constructor sets 0.25.
	Hysteresis float64
	// TarpitDelay is the per-request stall at the Tarpit rung.
	// Default 2s.
	TarpitDelay time.Duration
	// ChallengeBudget is how many challenged requests a client may leave
	// unsolved before being escalated straight to Block. Default 8.
	ChallengeBudget int
	// ChallengeTTL is how long a solved challenge exempts the client from
	// re-challenging. Default 30 minutes.
	ChallengeTTL time.Duration
	// IdleTTL is how long a client's state survives without traffic
	// before Sweep may evict it. Default 2 hours.
	IdleTTL time.Duration
}

// Observe returns the non-interfering policy.
func Observe() Policy { return Policy{Mode: ModeObserve} }

// Tag returns the tag-only policy: alerts are marked, nothing is denied.
func Tag() Policy { return Policy{Mode: ModeTag} }

// StaticBlock returns the binary block policy the guard historically
// implemented: 403 on adjudicated alert, or on unanimous confirmation
// only when confirmedOnly is set (single-tool alerts are then tagged).
func StaticBlock(confirmedOnly bool) Policy {
	return Policy{Mode: ModeStaticBlock, BlockOnConfirmedOnly: confirmedOnly}
}

// Graduated returns the calibrated escalation-ladder policy.
func Graduated() Policy {
	return Policy{
		Mode:               ModeGraduated,
		ScoreHalfLife:      10 * time.Minute,
		BenignWeight:       0.25,
		TarpitThreshold:    0.8,
		ChallengeThreshold: 1.6,
		BlockThreshold:     2.6,
		ScoreCap:           4,
		Hysteresis:         0.25,
		TarpitDelay:        2 * time.Second,
		ChallengeBudget:    8,
		ChallengeTTL:       30 * time.Minute,
		IdleTTL:            2 * time.Hour,
	}
}

// UsesChallenge reports whether the policy can emit Challenge actions —
// enforcement points only need to host the challenge flow when it can.
func (p Policy) UsesChallenge() bool { return p.Mode == ModeGraduated }

func (p *Policy) validate() error {
	switch p.Mode {
	case ModeObserve, ModeTag, ModeStaticBlock:
		return nil
	case ModeGraduated:
	default:
		return fmt.Errorf("mitigate: invalid mode %d", uint8(p.Mode))
	}
	d := Graduated()
	if p.ScoreHalfLife <= 0 {
		p.ScoreHalfLife = d.ScoreHalfLife
	}
	if p.BenignWeight < 0 || p.BenignWeight > 1 {
		return fmt.Errorf("mitigate: BenignWeight must be in [0,1], got %g", p.BenignWeight)
	}
	if p.TarpitThreshold <= 0 {
		p.TarpitThreshold = d.TarpitThreshold
	}
	if p.ChallengeThreshold <= 0 {
		p.ChallengeThreshold = d.ChallengeThreshold
	}
	if p.BlockThreshold <= 0 {
		p.BlockThreshold = d.BlockThreshold
	}
	if !(p.TarpitThreshold < p.ChallengeThreshold && p.ChallengeThreshold < p.BlockThreshold) {
		return fmt.Errorf("mitigate: thresholds must ascend (tarpit %g < challenge %g < block %g)",
			p.TarpitThreshold, p.ChallengeThreshold, p.BlockThreshold)
	}
	if p.ScoreCap <= 0 {
		p.ScoreCap = d.ScoreCap
	}
	if p.ScoreCap < p.BlockThreshold {
		return fmt.Errorf("mitigate: ScoreCap %g below BlockThreshold %g", p.ScoreCap, p.BlockThreshold)
	}
	if p.Hysteresis < 0 {
		return fmt.Errorf("mitigate: Hysteresis must be non-negative, got %g", p.Hysteresis)
	}
	if p.TarpitDelay <= 0 {
		p.TarpitDelay = d.TarpitDelay
	}
	if p.ChallengeBudget <= 0 {
		p.ChallengeBudget = d.ChallengeBudget
	}
	if p.ChallengeTTL <= 0 {
		p.ChallengeTTL = d.ChallengeTTL
	}
	if p.IdleTTL <= 0 {
		p.IdleTTL = d.IdleTTL
	}
	return nil
}

// threshold returns the score that admits a ladder rung.
func (p *Policy) threshold(level Action) float64 {
	switch level {
	case Tarpit:
		return p.TarpitThreshold
	case Challenge:
		return p.ChallengeThreshold
	case Block:
		return p.BlockThreshold
	default:
		return 0
	}
}

// clientState is one client's position on the ladder: plain values,
// thirty-two bytes, kept in the engine's slab. The instants are integer
// nanoseconds (internal/instant).
type clientState struct {
	score     float64
	passUntil int64 // solved-challenge exemption window; instant.Never when none was opened
	lastSeen  int64
	// challenged is the consecutive unanswered challenged requests. It
	// passes ChallengeBudget only while escalation is frozen, and then
	// stops at math.MaxInt32.
	challenged int32
	level      Action
}

// streak is a decoded unanswered-challenge count as a record holds it; ok
// is false for a count no engine keeps (negative, or past math.MaxInt32).
func streak(n int) (c int32, ok bool) {
	return int32(n), n >= 0 && n <= math.MaxInt32
}

// ActionCounts tallies emitted actions by kind.
type ActionCounts struct {
	Allowed, Tarpitted, Challenged, Blocked uint64
}

// Add folds another tally into this one.
func (c *ActionCounts) Add(o ActionCounts) {
	c.Allowed += o.Allowed
	c.Tarpitted += o.Tarpitted
	c.Challenged += o.Challenged
	c.Blocked += o.Blocked
}

// Total returns the number of recorded decisions.
func (c ActionCounts) Total() uint64 {
	return c.Allowed + c.Tarpitted + c.Challenged + c.Blocked
}

// Count records one decision.
func (c *ActionCounts) Count(a Action) {
	switch a {
	case Tarpit:
		c.Tarpitted++
	case Challenge:
		c.Challenged++
	case Block:
		c.Blocked++
	default:
		c.Allowed++
	}
}

// Engine folds the decision stream into per-client enforcement state.
// Not safe for concurrent use: give each traffic shard its own engine
// (clients hash to exactly one shard, so sharded state equals global
// state, the same argument the detection pipeline makes).
type Engine struct {
	policy Policy
	// ids finds a client's slot in states. A ladder client is not a heap
	// object: an address-rotating flood costs a map[uint32]uint32 entry
	// and forty bytes of a slab chunk per IPv4 address, and a sweep that
	// leaves most of that free rebuilds both (see shrink).
	ids    index
	states slab.Slab[clientState]
	counts ActionCounts
	// frozen suppresses rung climbs (see SetEscalationFrozen): the
	// cluster's fail-closed degraded mode for a node deciding on state it
	// knows is stale.
	frozen bool
}

// New validates the policy and builds an engine.
func New(policy Policy) (*Engine, error) {
	if err := policy.validate(); err != nil {
		return nil, err
	}
	return &Engine{
		policy: policy,
		ids:    newIndex(0, 0),
	}, nil
}

// Policy returns the effective (defaulted) policy.
func (e *Engine) Policy() Policy { return e.policy }

// Counts returns the lifetime action tally.
func (e *Engine) Counts() ActionCounts { return e.counts }

// Len reports how many clients currently hold enforcement state.
func (e *Engine) Len() int { return e.ids.len() }

// client returns key's state, starting it at now if the client is new.
// The pointer is valid until the next client starts or is dropped.
func (e *Engine) client(key string, now int64) *clientState {
	if id, ok := e.ids.get(key); ok {
		return e.states.At(id)
	}
	id, st := e.states.Alloc()
	st.passUntil, st.lastSeen = instant.Never, now
	e.ids.put(key, id)
	return st
}

// shrink gives memory back after a sweep: a Go map never returns its
// buckets and a slab whose slots are Released never shrinks, so once most
// of the slab is free slots both are rebuilt around the clients that are
// left.
func (e *Engine) shrink() {
	if !e.states.Sparse(e.ids.len()) {
		return
	}
	old := e.states
	e.states.Reset(e.ids.len())
	e.ids.rebuild(func(id uint32) uint32 {
		nid, st := e.states.Alloc()
		*st = *old.At(id)
		return nid
	})
}

// Level returns the client's current ladder rung without touching its
// state (Allow for unknown clients). The provenance plane reads it just
// before Apply to record rung-before → rung-after transitions; note it
// reports the rung as of the client's last Apply — decay since then is
// only materialised by the next Apply.
func (e *Engine) Level(key string) Action {
	if id, ok := e.ids.get(key); ok {
		return e.states.At(id).level
	}
	return Allow
}

// Apply folds one adjudicated request into the client's enforcement state
// and returns the action to take. now must be non-decreasing per client
// (the stream order detectors already require).
func (e *Engine) Apply(key string, now time.Time, a Assessment) Decision {
	d := e.apply(key, now, a)
	e.counts.Count(d.Action)
	return d
}

func (e *Engine) apply(key string, at time.Time, a Assessment) Decision {
	switch e.policy.Mode {
	case ModeObserve:
		return Decision{Action: Allow}
	case ModeTag:
		return Decision{Action: Allow, Tagged: a.Alerted}
	case ModeStaticBlock:
		if a.Confirmed || (!e.policy.BlockOnConfirmedOnly && a.Alerted) {
			return Decision{Action: Block, Level: Block, Tagged: true}
		}
		return Decision{Action: Allow, Tagged: a.Alerted}
	}

	p := &e.policy
	now := instant.Of(at)
	st := e.client(key, now)

	// Leaky integral: decay since the client's last request, then fold in
	// this request's suspicion.
	e.touch(st, now)
	contribution := a.Score
	if !a.Alerted {
		contribution *= p.BenignWeight
	}
	st.score += contribution
	if st.score > p.ScoreCap {
		st.score = p.ScoreCap
	}

	// Climb one rung per request; descend only once the score has fallen
	// Hysteresis below the current rung's admission threshold.
	raw := Allow
	for _, l := range [...]Action{Tarpit, Challenge, Block} {
		if st.score >= p.threshold(l) {
			raw = l
		}
	}
	if raw > st.level {
		if !e.frozen {
			st.level++
		}
	} else {
		for st.level > Allow && st.score < p.threshold(st.level)-p.Hysteresis {
			st.level--
		}
	}
	if st.level < Challenge {
		st.challenged = 0
	}

	exempt := st.passUntil > now
	action := st.level
	if st.level == Challenge {
		if exempt {
			// A solved challenge skips the Challenge rung: the client
			// proved a JavaScript runtime, so keep it merely slowed.
			action = Tarpit
		} else {
			if st.challenged < math.MaxInt32 {
				st.challenged++
			}
			if int(st.challenged) > p.ChallengeBudget && !e.frozen {
				// Ignoring the challenge is itself a conviction.
				st.level = Block
				if st.score < p.BlockThreshold {
					st.score = p.BlockThreshold
				}
				action = Block
			}
		}
	}

	d := Decision{Action: action, Tagged: a.Alerted, Level: st.level, Score: st.score}
	if action == Tarpit {
		d.Delay = p.TarpitDelay
	}
	return d
}

// touch decays the client's suspicion to now, and forgets the ladder
// position of a client that has sat idle past IdleTTL with its decayed
// score down in the Allow band — the same predicate under which Sweep
// may evict, which is what makes eviction enforcement-neutral: a swept
// client and an idle survivor are indistinguishable from their next
// request onward.
func (e *Engine) touch(st *clientState, now int64) {
	p := &e.policy
	dt := instant.Sub(now, st.lastSeen)
	if dt > 0 {
		st.score *= math.Exp2(-float64(dt) / float64(p.ScoreHalfLife))
	}
	if dt >= p.IdleTTL && st.score < p.TarpitThreshold-p.Hysteresis {
		st.score = 0
		st.level = Allow
		st.challenged = 0
	}
	st.lastSeen = now
}

// ChallengePassed records a solved JavaScript challenge for the client:
// it opens the exemption window, clears the unanswered-challenge streak,
// halves the suspicion score (a working JS runtime is evidence against
// the crudest kits) and de-escalates a Challenge-level client to Tarpit.
//
// Two guards keep the always-reachable beacon from becoming an evasion
// primitive: a Block-level client is never served the interstitial, so a
// bare beacon from one proves nothing and is ignored; and inside an
// already-open pass window a repeat beacon is a no-op, so relief is
// rate-limited to once per ChallengeTTL.
func (e *Engine) ChallengePassed(key string, at time.Time) {
	if e.policy.Mode != ModeGraduated {
		return
	}
	now := instant.Of(at)
	st := e.client(key, now)
	e.touch(st, now)
	if st.level == Block || st.passUntil > now {
		return
	}
	st.passUntil = instant.Add(now, e.policy.ChallengeTTL)
	st.challenged = 0
	st.score /= 2
	if st.level == Challenge {
		st.level = Tarpit
	}
}

// Sweep evicts clients idle for longer than Policy.IdleTTL whose decayed
// score has fallen back into the Allow band, bounding state growth. It
// returns the number of clients evicted. Enforcement is unaffected:
// touch resets an idle survivor matching this predicate to the same zero
// state a swept client restarts from, so sweeping earlier or later (or
// on a differently sharded guard) never changes an action sequence.
func (e *Engine) Sweep(now time.Time) int {
	return e.evictIdle(instant.Of(now), e.policy.IdleTTL)
}

// evictIdle drops every client idle for at least idle as of now whose
// suspicion, decayed to now, has fallen into the Allow band with no live
// challenge pass.
func (e *Engine) evictIdle(now int64, idle time.Duration) int {
	if e.policy.Mode != ModeGraduated {
		return 0
	}
	p := &e.policy
	evicted := e.ids.dropIf(func(id uint32) bool {
		st := e.states.At(id)
		dt := instant.Sub(now, st.lastSeen)
		if dt < idle {
			return false
		}
		score := st.score * math.Exp2(-float64(dt)/float64(p.ScoreHalfLife))
		if score >= p.TarpitThreshold-p.Hysteresis || st.passUntil > now {
			return false
		}
		e.states.Release(id)
		return true
	})
	if evicted > 0 {
		e.shrink()
	}
	return evicted
}

// EvictBefore evicts clients last seen before cutoff whose suspicion,
// decayed to cutoff, has fallen into the Allow band with no live
// challenge pass — the sweeper-facing form of Sweep, taking the state-age
// cutoff directly instead of deriving it from "now" and IdleTTL. It
// returns the number evicted.
//
// Enforcement neutrality holds whenever the caller keeps cutoff at least
// IdleTTL behind stream time (the windowed sweeper's contract): a
// surviving client's next request then arrives ≥ IdleTTL after lastSeen
// with its score decayed below the de-escalation band, which is exactly
// the predicate under which touch resets an un-evicted client to the same
// zero state a swept client restarts from. Scoring the decay at cutoff
// rather than at stream time is conservative — a borderline client is
// kept one more window, never dropped early.
func (e *Engine) EvictBefore(cutoff time.Time) int {
	return e.evictIdle(instant.Of(cutoff), 1) // idle a nanosecond: last seen before cutoff
}

// Reset clears all per-client state and counters.
func (e *Engine) Reset() {
	e.ids.reset()
	e.states.Reset(0)
	e.counts = ActionCounts{}
}
