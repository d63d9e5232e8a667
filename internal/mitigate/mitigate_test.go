package mitigate

import (
	"testing"
	"time"
	"unsafe"
)

var t0 = time.Date(2018, 3, 11, 9, 0, 0, 0, time.UTC)

func newEngine(t *testing.T, p Policy) *Engine {
	t.Helper()
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// scraping is a sustained adjudicated-alert stream's per-request view.
var scraping = Assessment{Alerted: true, Confirmed: true, Score: 0.5}

func TestPolicyValidation(t *testing.T) {
	if _, err := New(Policy{}); err == nil {
		t.Error("zero policy accepted")
	}
	if _, err := New(Policy{Mode: Mode(99)}); err == nil {
		t.Error("invalid mode accepted")
	}
	bad := Graduated()
	bad.ChallengeThreshold = bad.BlockThreshold + 1
	if _, err := New(bad); err == nil {
		t.Error("non-ascending thresholds accepted")
	}
	bad = Graduated()
	bad.ScoreCap = bad.BlockThreshold / 2
	if _, err := New(bad); err == nil {
		t.Error("cap below block threshold accepted")
	}
	// Zero graduated fields take calibrated defaults.
	e := newEngine(t, Policy{Mode: ModeGraduated})
	if e.Policy().TarpitDelay != Graduated().TarpitDelay {
		t.Errorf("defaulted TarpitDelay = %v", e.Policy().TarpitDelay)
	}
}

func TestStaticModes(t *testing.T) {
	obs := newEngine(t, Observe())
	if d := obs.Apply("c", t0, scraping); d.Action != Allow || d.Tagged {
		t.Errorf("observe decision = %+v", d)
	}

	tag := newEngine(t, Tag())
	if d := tag.Apply("c", t0, scraping); d.Action != Allow || !d.Tagged {
		t.Errorf("tag decision = %+v", d)
	}
	if d := tag.Apply("c", t0, Assessment{}); d.Tagged {
		t.Errorf("clean request tagged: %+v", d)
	}

	blk := newEngine(t, StaticBlock(false))
	if d := blk.Apply("c", t0, Assessment{Alerted: true, Score: 0.3}); d.Action != Block {
		t.Errorf("static block let an alert through: %+v", d)
	}
	if d := blk.Apply("c", t0, Assessment{}); d.Action != Allow {
		t.Errorf("static block denied a clean request: %+v", d)
	}

	conf := newEngine(t, StaticBlock(true))
	if d := conf.Apply("c", t0, Assessment{Alerted: true, Score: 0.3}); d.Action != Block && !d.Tagged {
		t.Errorf("unconfirmed alert neither passed-tagged nor blocked: %+v", d)
	} else if d.Action == Block {
		t.Errorf("unconfirmed alert blocked under confirmed-only: %+v", d)
	}
	if d := conf.Apply("c", t0, scraping); d.Action != Block {
		t.Errorf("confirmed alert not blocked: %+v", d)
	}

	// On the ladder an unconfirmed alert weighs as a benign request: three
	// of them stay at Allow, still tagged, where the same stream confirmed
	// climbs to Tarpit.
	p := Graduated()
	p.ConfirmedOnly = true
	lad := newEngine(t, p)
	unconfirmed := scraping
	unconfirmed.Confirmed = false
	var single, both Decision
	for i := 0; i < 3; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		single, both = lad.Apply("single", at, unconfirmed), lad.Apply("both", at, scraping)
	}
	if single.Action != Allow || single.Level != Allow || !single.Tagged {
		t.Errorf("unconfirmed alerts under confirmed-only: %+v, want an Allow still tagged", single)
	}
	if both.Action != Tarpit {
		t.Errorf("confirmed alerts under confirmed-only: %+v, want Tarpit", both)
	}
}

// TestEscalationLadder drives a sustained scraper through the full ladder
// and checks it climbs one rung at a time.
func TestEscalationLadder(t *testing.T) {
	e := newEngine(t, Graduated())
	now := t0
	var seen []Action
	last := Action(255)
	for i := 0; i < 40; i++ {
		d := e.Apply("scraper", now, scraping)
		if d.Action != last {
			seen = append(seen, d.Action)
			last = d.Action
		}
		if d.Action == Block {
			break
		}
		now = now.Add(time.Second)
	}
	want := []Action{Allow, Tarpit, Challenge, Block}
	if len(seen) != len(want) {
		t.Fatalf("action progression = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("action progression = %v, want %v", seen, want)
		}
	}
}

// TestDecayBackToAllow verifies the TTL decay: a convicted client that
// goes quiet drifts back down the ladder.
func TestDecayBackToAllow(t *testing.T) {
	e := newEngine(t, Graduated())
	now := t0
	for i := 0; i < 20; i++ {
		e.Apply("c", now, scraping)
		now = now.Add(time.Second)
	}
	if d := e.Apply("c", now, scraping); d.Action != Block {
		t.Fatalf("sustained scraping not blocked: %+v", d)
	}
	// Several half-lives of silence: the score decays through every
	// hysteresis band, so the next (clean) request is allowed.
	now = now.Add(2 * time.Hour)
	if d := e.Apply("c", now, Assessment{Score: 0.05}); d.Action != Allow {
		t.Fatalf("decayed client still enforced: %+v", d)
	}
}

// TestHysteresisPreventsFlapping holds a client's score just under the
// tarpit threshold after escalation: without fresh suspicion it must stay
// tarpitted (not flap to Allow) until the score falls through the band.
func TestHysteresisPreventsFlapping(t *testing.T) {
	p := Graduated()
	e := newEngine(t, p)
	now := t0
	var d Decision
	for i := 0; i < 10 && d.Level < Tarpit; i++ {
		d = e.Apply("c", now, Assessment{Alerted: true, Score: 0.3})
		now = now.Add(time.Second)
	}
	if d.Level != Tarpit {
		t.Fatalf("never reached tarpit: %+v", d)
	}
	// Quiet clean requests: score decays slowly; while it sits inside the
	// hysteresis band the client stays at Tarpit.
	sawTarpitBelowThreshold := false
	for i := 0; i < 200; i++ {
		now = now.Add(30 * time.Second)
		d = e.Apply("c", now, Assessment{})
		if d.Action == Allow {
			break
		}
		if d.Score < p.TarpitThreshold && d.Score >= p.TarpitThreshold-p.Hysteresis {
			if d.Action != Tarpit {
				t.Fatalf("flapped to %v inside hysteresis band (score %g)", d.Action, d.Score)
			}
			sawTarpitBelowThreshold = true
		}
	}
	if !sawTarpitBelowThreshold {
		t.Error("score never traversed the hysteresis band; test proves nothing")
	}
	if d.Action != Allow {
		t.Fatalf("client never de-escalated: %+v", d)
	}
	if d.Score >= p.TarpitThreshold-p.Hysteresis {
		t.Errorf("de-escalated above the hysteresis floor: score %g", d.Score)
	}
}

// TestChallengePassedExemptsAndRelieves verifies the challenge flow: a
// solved challenge de-escalates to Tarpit, halves the score and skips the
// Challenge rung for the TTL window.
func TestChallengePassedExemptsAndRelieves(t *testing.T) {
	p := Graduated()
	e := newEngine(t, p)
	now := t0
	var d Decision
	for i := 0; i < 30 && d.Action != Challenge; i++ {
		d = e.Apply("c", now, Assessment{Alerted: true, Score: 0.4})
		now = now.Add(time.Second)
	}
	if d.Action != Challenge {
		t.Fatalf("never challenged: %+v", d)
	}
	before := d.Score
	e.ChallengePassed("c", now)

	d = e.Apply("c", now.Add(time.Second), Assessment{Alerted: true, Score: 0.4})
	if d.Action == Challenge || d.Action == Block {
		t.Fatalf("challenged again inside the pass window: %+v", d)
	}
	if d.Score >= before {
		t.Errorf("score not relieved by solved challenge: %g -> %g", before, d.Score)
	}

	// Keep scraping: the exemption clamps Challenge to Tarpit but does
	// not protect against the Block rung.
	now = now.Add(2 * time.Second)
	var blocked bool
	for i := 0; i < 40; i++ {
		d = e.Apply("c", now, scraping)
		if d.Action == Challenge {
			t.Fatalf("challenge served during exemption: %+v", d)
		}
		if d.Action == Block {
			blocked = true
			break
		}
		now = now.Add(time.Second)
	}
	if !blocked {
		t.Error("persistent scraper never blocked despite solved challenge")
	}
}

// TestChallengeBudgetEscalates verifies that a client which cannot solve
// the challenge is promoted to Block after the budget runs out, even when
// its score alone would hold at the Challenge rung.
func TestChallengeBudgetEscalates(t *testing.T) {
	p := Graduated()
	e := newEngine(t, p)
	now := t0
	var d Decision
	challenged := 0
	for i := 0; i < 200; i++ {
		// Mild sustained suspicion: enough to sit at Challenge, not enough
		// to cross BlockThreshold by score.
		d = e.Apply("c", now, Assessment{Alerted: true, Score: 0.12})
		if d.Action == Challenge {
			challenged++
		}
		if d.Action == Block {
			break
		}
		now = now.Add(10 * time.Second)
	}
	if d.Action != Block {
		t.Fatalf("challenge-ignoring client never blocked (challenged %d times)", challenged)
	}
	if challenged != p.ChallengeBudget {
		t.Errorf("served %d challenges before blocking, budget is %d", challenged, p.ChallengeBudget)
	}
}

// TestDeterminism replays one interleaved multi-client stream twice and
// requires identical decisions — the contract the simulated-clock
// experiments build on.
func TestDeterminism(t *testing.T) {
	stream := func(e *Engine) []Decision {
		var out []Decision
		now := t0
		for i := 0; i < 500; i++ {
			key := []string{"a", "b", "c"}[i%3]
			a := Assessment{
				Alerted:   i%3 == 0,
				Confirmed: i%6 == 0,
				Score:     float64(i%7) / 10,
			}
			out = append(out, e.Apply(key, now, a))
			if i%50 == 49 {
				e.ChallengePassed("b", now)
			}
			now = now.Add(time.Duration(1+i%5) * time.Second)
		}
		return out
	}
	d1 := stream(newEngine(t, Graduated()))
	d2 := stream(newEngine(t, Graduated()))
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, d1[i], d2[i])
		}
	}
}

func TestSweepEvictsIdleOnly(t *testing.T) {
	// A half-life much longer than the idle TTL, so a convicted client's
	// score survives the TTL and Sweep must keep its state.
	p := Graduated()
	p.ScoreHalfLife = 24 * time.Hour
	e := newEngine(t, p)
	now := t0
	for i := 0; i < 20; i++ {
		e.Apply("hot", now.Add(time.Duration(i)*time.Second), scraping)
	}
	e.Apply("idle", now, Assessment{Score: 0.1})
	if n := e.Len(); n != 2 {
		t.Fatalf("clients = %d", n)
	}
	// Before the idle TTL nothing goes.
	if n := e.Sweep(now.Add(p.IdleTTL / 2)); n != 0 {
		t.Errorf("early sweep evicted %d", n)
	}
	// Past the TTL only the low-score client goes: the convicted one's
	// score is still above the Allow band.
	if n := e.Sweep(now.Add(p.IdleTTL + time.Minute)); n != 1 {
		t.Errorf("idle sweep evicted %d, want 1", n)
	}
	if e.Len() != 1 {
		t.Fatalf("clients after idle sweep = %d", e.Len())
	}
	// Far in the future even the conviction has decayed away.
	if n := e.Sweep(now.Add(21 * 24 * time.Hour)); n != 1 {
		t.Errorf("late sweep evicted %d, want 1", n)
	}
	if e.Len() != 0 {
		t.Errorf("clients after sweeps = %d", e.Len())
	}
}

// TestBeaconCannotUnblock: a Block-level client is never served the
// interstitial, so a bare verify beacon from one must not de-escalate it
// — otherwise any kit that knows the two paths walks out of every block.
func TestBeaconCannotUnblock(t *testing.T) {
	e := newEngine(t, Graduated())
	now := t0
	var d Decision
	for i := 0; i < 30 && d.Action != Block; i++ {
		d = e.Apply("bot", now, scraping)
		now = now.Add(time.Second)
	}
	if d.Action != Block {
		t.Fatal("never blocked")
	}
	e.ChallengePassed("bot", now)
	if d = e.Apply("bot", now.Add(time.Second), scraping); d.Action != Block {
		t.Fatalf("beacon de-escalated a blocked client: %+v", d)
	}
}

// TestBeaconReliefRateLimited: inside an open pass window repeat beacons
// are no-ops, so score-halving cannot be farmed faster than once per
// ChallengeTTL.
func TestBeaconReliefRateLimited(t *testing.T) {
	e := newEngine(t, Graduated())
	now := t0
	for i := 0; i < 10; i++ {
		e.Apply("c", now, Assessment{Alerted: true, Score: 0.3})
		now = now.Add(time.Second)
	}
	e.ChallengePassed("c", now)
	after := e.Apply("c", now.Add(time.Second), Assessment{}).Score
	e.ChallengePassed("c", now.Add(2*time.Second)) // inside the window: no-op
	again := e.Apply("c", now.Add(3*time.Second), Assessment{}).Score
	if again < after/2 {
		t.Errorf("repeat beacon farmed relief: score %g -> %g", after, again)
	}
}

// TestSweepEnforcementNeutral: an idle client that Sweep's predicate
// would evict must behave identically whether it was actually evicted or
// survived — same decisions on the same subsequent stream.
func TestSweepEnforcementNeutral(t *testing.T) {
	p := Graduated()
	escalate := func(e *Engine) {
		now := t0
		for i := 0; i < 6; i++ { // up to Tarpit level, then idle out
			e.Apply("c", now, Assessment{Alerted: true, Score: 0.3})
			now = now.Add(time.Second)
		}
	}
	replay := func(e *Engine) []Decision {
		var out []Decision
		now := t0.Add(p.IdleTTL + time.Hour) // long past the idle TTL
		for i := 0; i < 10; i++ {
			out = append(out, e.Apply("c", now, Assessment{Alerted: true, Score: 0.6}))
			now = now.Add(time.Second)
		}
		return out
	}
	swept := newEngine(t, p)
	escalate(swept)
	if n := swept.Sweep(t0.Add(p.IdleTTL + time.Minute)); n != 1 {
		t.Fatalf("sweep evicted %d, want 1", n)
	}
	kept := newEngine(t, p)
	escalate(kept)

	a, b := replay(swept), replay(kept)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverges after eviction: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestZeroBenignWeightAndHysteresisHonoured(t *testing.T) {
	p := Graduated()
	p.BenignWeight = 0
	p.Hysteresis = 0
	e := newEngine(t, p)
	if got := e.Policy(); got.BenignWeight != 0 || got.Hysteresis != 0 {
		t.Errorf("explicit zeros overridden: %+v", got)
	}
	// Benign traffic must now accumulate nothing.
	now := t0
	for i := 0; i < 50; i++ {
		if d := e.Apply("c", now, Assessment{Score: 0.9}); d.Score != 0 {
			t.Fatalf("benign request accumulated score %g with BenignWeight 0", d.Score)
		}
		now = now.Add(time.Second)
	}
}

func TestCountsAndReset(t *testing.T) {
	e := newEngine(t, StaticBlock(false))
	e.Apply("c", t0, scraping)
	e.Apply("c", t0, Assessment{})
	c := e.Counts()
	if c.Blocked != 1 || c.Allowed != 1 || c.Total() != 2 {
		t.Errorf("counts = %+v", c)
	}
	e.Reset()
	if e.Counts().Total() != 0 || e.Len() != 0 {
		t.Error("reset left state behind")
	}
}

func TestActionAndModeNames(t *testing.T) {
	if Allow.String() != "allow" || Block.String() != "block" {
		t.Error("action names wrong")
	}
	if Action(9).String() == "" || Mode(9).String() == "" {
		t.Error("unknown values render empty")
	}
	if ModeGraduated.String() != "graduated" {
		t.Error("mode name wrong")
	}
}

// A ladder record is its state in 32 bytes: three 8-byte fields, the
// streak as an int32 and the rung.
func TestRecordHoldsStateOnly(t *testing.T) {
	const ceiling = 32
	size := unsafe.Sizeof(clientState{})
	t.Logf("clientState is %d B (ceiling %d B)", size, ceiling)
	if size > ceiling {
		t.Errorf("clientState is %d B, ceiling %d B", size, ceiling)
	}
}
