package mitigate

import (
	"math"
	"testing"
	"time"
)

func graduatedEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Graduated())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// escalate drives the client with alerted full-suspicion requests until
// its rung stops changing, returning the final level.
func escalate(e *Engine, key string, start time.Time, n int) Action {
	var level Action
	for i := 0; i < n; i++ {
		d := e.Apply(key, start.Add(time.Duration(i)*time.Second), Assessment{
			Alerted: true, Confirmed: true, Score: 1,
		})
		level = d.Level
	}
	return level
}

func TestDigestsRoundTripThroughMerge(t *testing.T) {
	src := graduatedEngine(t)
	dst := graduatedEngine(t)
	base := time.Date(2018, 3, 11, 6, 0, 0, 0, time.UTC)

	escalate(src, "10.0.0.1", base, 12)
	escalate(src, "10.0.0.2", base, 3)
	src.ChallengePassed("10.0.0.2", base.Add(time.Hour))

	applied := 0
	src.DigestsSince(time.Time{}, func(d ClientDigest) {
		if dst.MergeDigest(d) {
			applied++
		}
	})
	if applied != 2 {
		t.Fatalf("applied %d digests, want 2", applied)
	}
	for _, key := range []string{"10.0.0.1", "10.0.0.2"} {
		if got, want := dst.Level(key), src.Level(key); got != want {
			t.Errorf("replica level %s = %v, want %v", key, got, want)
		}
	}

	// Replaying the same digests is a no-op: merge is idempotent.
	src.DigestsSince(time.Time{}, func(d ClientDigest) {
		if dst.MergeDigest(d) {
			t.Errorf("duplicate digest for %s applied", d.Key)
		}
	})
}

func TestDigestsSinceFiltersByActivity(t *testing.T) {
	e := graduatedEngine(t)
	base := time.Date(2018, 3, 11, 6, 0, 0, 0, time.UTC)
	escalate(e, "old", base, 2)
	escalate(e, "new", base.Add(time.Hour), 2)

	var keys []string
	e.DigestsSince(base.Add(30*time.Minute), func(d ClientDigest) {
		keys = append(keys, d.Key)
	})
	if len(keys) != 1 || keys[0] != "new" {
		t.Fatalf("DigestsSince = %v, want [new]", keys)
	}
	// Zero since is the full-state form.
	n := 0
	e.DigestsSince(time.Time{}, func(ClientDigest) { n++ })
	if n != 2 {
		t.Fatalf("full DigestsSince streamed %d clients, want 2", n)
	}
}

func TestMergeDigestLastWriterWins(t *testing.T) {
	e := graduatedEngine(t)
	base := time.Date(2018, 3, 11, 6, 0, 0, 0, time.UTC)
	newer := ClientDigest{Key: "c", Score: 3, Level: Block, LastSeen: base.Add(time.Minute)}
	older := ClientDigest{Key: "c", Score: 1, Level: Tarpit, LastSeen: base}

	if !e.MergeDigest(newer) {
		t.Fatal("fresh digest not applied")
	}
	if e.MergeDigest(older) {
		t.Fatal("stale digest applied over newer local state")
	}
	if got := e.Level("c"); got != Block {
		t.Fatalf("level = %v after stale merge, want Block", got)
	}
	// Same-timestamp re-delivery is also a no-op (idempotence).
	if e.MergeDigest(newer) {
		t.Fatal("identical digest re-applied")
	}
	// Corrupt rung never lands.
	if e.MergeDigest(ClientDigest{Key: "x", Level: Block + 1, LastSeen: base}) {
		t.Fatal("invalid rung applied")
	}
	// Nor does a streak a record cannot hold.
	for _, n := range []int{-1, math.MaxInt32 + 1} {
		if e.MergeDigest(ClientDigest{Key: "y", Level: Challenge, Challenged: n, LastSeen: base}) {
			t.Fatalf("unanswered-challenge count %d applied", n)
		}
	}
	if !e.MergeDigest(ClientDigest{Key: "y", Level: Challenge, Challenged: math.MaxInt32, LastSeen: base}) {
		t.Fatal("the largest streak a record holds was refused")
	}
}

func TestEscalationFrozenHoldsRungAndResumesOnUnfreeze(t *testing.T) {
	e := graduatedEngine(t)
	base := time.Date(2018, 3, 11, 6, 0, 0, 0, time.UTC)

	// Climb to Tarpit (one rung per request), then freeze: further
	// hostile traffic must not raise the rung, however long it runs.
	escalate(e, "bot", base, 1)
	if got := e.Level("bot"); got != Tarpit {
		t.Fatalf("pre-freeze level = %v, want Tarpit", got)
	}
	e.SetEscalationFrozen(true)
	if !e.EscalationFrozen() {
		t.Fatal("EscalationFrozen not reported")
	}
	for i := 0; i < 40; i++ {
		d := e.Apply("bot", base.Add(time.Duration(1+i)*time.Second), Assessment{
			Alerted: true, Confirmed: true, Score: 1,
		})
		if d.Level > Tarpit {
			t.Fatalf("frozen engine escalated to %v", d.Level)
		}
	}

	// Unfreeze: the score is saturated, so climbing resumes immediately,
	// one rung per request.
	e.SetEscalationFrozen(false)
	d := e.Apply("bot", base.Add(42*time.Second), Assessment{Alerted: true, Confirmed: true, Score: 1})
	if d.Level != Challenge {
		t.Fatalf("post-unfreeze level = %v, want Challenge", d.Level)
	}
}

func TestEscalationFrozenSuppressesChallengeBudgetBlock(t *testing.T) {
	e := graduatedEngine(t)
	base := time.Date(2018, 3, 11, 6, 0, 0, 0, time.UTC)

	// Reach the Challenge rung, then freeze and burn far past the
	// challenge budget: the streak must not convict to Block.
	escalate(e, "bot", base, 2)
	if got := e.Level("bot"); got != Challenge {
		t.Fatalf("setup level = %v, want Challenge", got)
	}
	e.SetEscalationFrozen(true)
	budget := e.Policy().ChallengeBudget
	for i := 0; i < budget*3; i++ {
		d := e.Apply("bot", base.Add(time.Duration(2+i)*time.Second), Assessment{
			Alerted: true, Confirmed: true, Score: 1,
		})
		if d.Action == Block || d.Level == Block {
			t.Fatalf("frozen engine blocked via challenge budget at request %d", i)
		}
	}
}
