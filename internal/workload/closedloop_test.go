package workload

import (
	"strings"
	"testing"
	"time"

	"divscrape/internal/mitigate"
	"divscrape/internal/sitemodel"
)

// render flattens an event stream to log lines + labels for byte-level
// comparison.
func render(t *testing.T, events []Event) string {
	t.Helper()
	var sb strings.Builder
	for _, ev := range events {
		sb.WriteString(ev.Entry.String())
		sb.WriteByte('|')
		sb.WriteString(ev.Label.Archetype.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func collectClosedLoop(t *testing.T, cfg Config, respond func(Event) (Enforcement, error)) []Event {
	t.Helper()
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []Event
	err = gen.RunClosedLoop(func(ev Event) (Enforcement, error) {
		out = append(out, ev)
		enf, err := respond(ev)
		return enf, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClosedLoopAllowEqualsOpenLoop: with an all-Allow response the closed
// loop must reproduce the open-loop stream byte for byte — reactions (and
// their randomness) only fire on adverse actions.
func TestClosedLoopAllowEqualsOpenLoop(t *testing.T) {
	cfg := Config{Seed: 7, Duration: 2 * time.Hour}
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	open, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	closed := collectClosedLoop(t, cfg, func(Event) (Enforcement, error) {
		return Enforcement{Action: mitigate.Allow}, nil
	})
	if len(open) != len(closed) {
		t.Fatalf("open loop %d events, closed loop %d", len(open), len(closed))
	}
	if render(t, open) != render(t, closed) {
		t.Error("all-Allow closed loop diverged from open loop")
	}
}

// TestClosedLoopDeterministic: the same enforcement function replayed from
// the same seed yields a byte-identical stream.
func TestClosedLoopDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, Duration: 2 * time.Hour}
	// Adversarial-ish policy: block every 7th malicious request, challenge
	// every 3rd, tarpit the rest.
	respond := func() func(Event) (Enforcement, error) {
		n := 0
		return func(ev Event) (Enforcement, error) {
			if !ev.Label.Malicious() {
				return Enforcement{Action: mitigate.Allow}, nil
			}
			n++
			switch {
			case n%7 == 0:
				return Enforcement{Action: mitigate.Block}, nil
			case n%3 == 0:
				return Enforcement{Action: mitigate.Challenge}, nil
			default:
				return Enforcement{Action: mitigate.Tarpit, Delay: 2 * time.Second}, nil
			}
		}
	}
	a := collectClosedLoop(t, cfg, respond())
	b := collectClosedLoop(t, cfg, respond())
	if render(t, a) != render(t, b) {
		t.Error("closed-loop runs with identical seed and policy diverged")
	}
}

// scraperOnly is a profile with exactly one actor of the chosen kind, so
// reactions are observable in isolation.
func scraperOnly(set func(*Profile)) Profile {
	p := Profile{}
	set(&p)
	return p
}

// TestBlockedScraperRotatesIP: a naive scraper that gets blocked must come
// back later under a different address.
func TestBlockedScraperRotatesIP(t *testing.T) {
	cfg := Config{
		Seed:     3,
		Duration: 12 * time.Hour,
		Profile: scraperOnly(func(p *Profile) {
			p.NaiveScrapers = 1
			p.NaiveRate = 1
			p.NaiveDuty = 0.9
		}),
	}
	ips := map[string]bool{}
	var blocks int
	events := collectClosedLoop(t, cfg, func(ev Event) (Enforcement, error) {
		ips[ev.Entry.RemoteAddr] = true
		// Block after a short tolerated prefix per address.
		blocks++
		if blocks%10 == 0 {
			return Enforcement{Action: mitigate.Block}, nil
		}
		return Enforcement{Action: mitigate.Allow}, nil
	})
	if len(events) == 0 {
		t.Fatal("no events generated")
	}
	if len(ips) < 2 {
		t.Errorf("blocked scraper never rotated: %d address(es) seen", len(ips))
	}
}

// TestBlockCooldownQuietsActor: after a block the actor goes quiet for at
// least its cooldown before the next request.
func TestBlockCooldownQuietsActor(t *testing.T) {
	cfg := Config{
		Seed:     5,
		Duration: 12 * time.Hour,
		Profile: scraperOnly(func(p *Profile) {
			p.NaiveScrapers = 1
			p.NaiveRate = 1
			p.NaiveDuty = 0.9
		}),
	}
	var blockedAt time.Time
	var resumedGap time.Duration
	events := collectClosedLoop(t, cfg, func(ev Event) (Enforcement, error) {
		if !blockedAt.IsZero() && resumedGap == 0 {
			resumedGap = ev.Entry.Time.Sub(blockedAt)
		}
		if blockedAt.IsZero() && ev.Label.Malicious() {
			blockedAt = ev.Entry.Time
			return Enforcement{Action: mitigate.Block}, nil
		}
		return Enforcement{Action: mitigate.Allow}, nil
	})
	if blockedAt.IsZero() {
		t.Fatal("never blocked anything")
	}
	if len(events) < 2 || resumedGap == 0 {
		t.Fatal("actor never resumed after the block")
	}
	// Naive kit cooldown is 10 minutes.
	if resumedGap < 10*time.Minute {
		t.Errorf("resumed %v after block, want >= 10m", resumedGap)
	}
}

// TestChallengedSolverPostsVerify: a headless scraper answers a challenge
// with the script fetch and the solution beacon within seconds.
func TestChallengedSolverPostsVerify(t *testing.T) {
	cfg := Config{
		Seed:     9,
		Duration: 24 * time.Hour,
		Profile: scraperOnly(func(p *Profile) {
			p.HeadlessScrapers = 1
			p.HeadlessRate = 1
			p.HeadlessDuty = 0.5
		}),
	}
	var challengedAt time.Time
	var verifyAt time.Time
	sawContentAfterVerify := false
	collectClosedLoop(t, cfg, func(ev Event) (Enforcement, error) {
		path := ev.Entry.Path
		if !verifyAt.IsZero() && sitemodel.ClassifyPath(path).Kind.IsPage() {
			sawContentAfterVerify = true
		}
		if challengedAt.IsZero() && sitemodel.ClassifyPath(path).Kind == sitemodel.KindProduct {
			challengedAt = ev.Entry.Time
			return Enforcement{Action: mitigate.Challenge}, nil
		}
		if !challengedAt.IsZero() && verifyAt.IsZero() {
			if path == sitemodel.ChallengeVerifyPath && ev.Entry.Method == "POST" {
				verifyAt = ev.Entry.Time
			}
		}
		return Enforcement{Action: mitigate.Allow}, nil
	})
	if challengedAt.IsZero() {
		t.Fatal("never challenged a product fetch")
	}
	if verifyAt.IsZero() {
		t.Fatal("challenged solver never posted the solution")
	}
	if gap := verifyAt.Sub(challengedAt); gap > 10*time.Second {
		t.Errorf("solution posted %v after challenge, want seconds", gap)
	}
	if !sawContentAfterVerify {
		t.Error("solver never resumed content fetching after verifying")
	}
}

// TestNonSolverGivesUpOnChallenges: a stealth bot (no JS) served only
// challenges stops requesting instead of hammering forever.
func TestNonSolverGivesUpOnChallenges(t *testing.T) {
	cfg := Config{
		Seed:     13,
		Duration: 6 * time.Hour,
		Profile: scraperOnly(func(p *Profile) {
			p.StealthBots = 1
			p.StealthSessionGap = 30 * time.Minute
		}),
	}
	verifies := 0
	challenged := 0
	challengeAll := collectClosedLoop(t, cfg, func(ev Event) (Enforcement, error) {
		if ev.Entry.Path == sitemodel.ChallengeVerifyPath {
			verifies++
		}
		challenged++
		return Enforcement{Action: mitigate.Challenge}, nil
	})
	allowAll := collectClosedLoop(t, cfg, func(ev Event) (Enforcement, error) {
		return Enforcement{Action: mitigate.Allow}, nil
	})
	if verifies != 0 {
		t.Errorf("stealth bot posted %d challenge solutions; it has no JS runtime", verifies)
	}
	if len(challengeAll) >= len(allowAll) {
		t.Errorf("challenge-everything run emitted %d events vs %d allowed — bot never gave up",
			len(challengeAll), len(allowAll))
	}
}

// TestTarpitSlowsActor: a tarpitted scraper's stream stretches out; total
// requests inside the window drop versus an allowed run.
func TestTarpitSlowsActor(t *testing.T) {
	cfg := Config{
		Seed:     17,
		Duration: 6 * time.Hour,
		Profile: scraperOnly(func(p *Profile) {
			p.NaiveScrapers = 1
			p.NaiveRate = 1
			p.NaiveDuty = 0.9
		}),
	}
	tarpitted := collectClosedLoop(t, cfg, func(ev Event) (Enforcement, error) {
		return Enforcement{Action: mitigate.Tarpit, Delay: 2 * time.Second}, nil
	})
	allowed := collectClosedLoop(t, cfg, func(ev Event) (Enforcement, error) {
		return Enforcement{Action: mitigate.Allow}, nil
	})
	if len(tarpitted) >= len(allowed) {
		t.Errorf("tarpit did not slow the scraper: %d vs %d events", len(tarpitted), len(allowed))
	}
	// Timestamps must stay non-decreasing after all the queue surgery.
	for i := 1; i < len(tarpitted); i++ {
		if tarpitted[i].Entry.Time.Before(tarpitted[i-1].Entry.Time) {
			t.Fatalf("event %d out of order: %v before %v",
				i, tarpitted[i].Entry.Time, tarpitted[i-1].Entry.Time)
		}
	}
}

// TestChallengedHumanReverifies: a mid-session challenge makes a human's
// browser re-run the challenge flow rather than losing the shopper.
func TestChallengedHumanReverifies(t *testing.T) {
	cfg := Config{
		Seed:     21,
		Duration: 48 * time.Hour,
		Profile: scraperOnly(func(p *Profile) {
			p.HumanVisitors = 3
			p.HumanSessionsPerDay = 4
		}),
	}
	var challengedAt time.Time
	var reverified bool
	collectClosedLoop(t, cfg, func(ev Event) (Enforcement, error) {
		if !challengedAt.IsZero() && !reverified &&
			ev.Entry.Path == sitemodel.ChallengeVerifyPath && ev.Entry.Method == "POST" {
			reverified = true
		}
		// Challenge one mid-session product view, once.
		if challengedAt.IsZero() && sitemodel.ClassifyPath(ev.Entry.Path).Kind == sitemodel.KindProduct {
			challengedAt = ev.Entry.Time
			return Enforcement{Action: mitigate.Challenge}, nil
		}
		return Enforcement{Action: mitigate.Allow}, nil
	})
	if challengedAt.IsZero() {
		t.Fatal("no product view to challenge")
	}
	if !reverified {
		t.Error("challenged human never re-verified")
	}
}
