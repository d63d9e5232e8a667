package mitigate

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"divscrape/internal/statecodec"
)

// EvictBefore with a cutoff at least IdleTTL behind stream time must be
// enforcement-neutral: the action sequence of a stream replayed with
// periodic sweeps is identical to the un-swept reference. The stream
// interleaves a persistent scraper, a bursty client that goes quiet past
// the window, and fresh one-shot clients.
func TestEvictBeforeIsEnforcementNeutral(t *testing.T) {
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	type req struct {
		key string
		at  time.Time
		a   Assessment
	}
	var stream []req
	for i := 0; i < 400; i++ {
		at := base.Add(time.Duration(i) * time.Minute)
		stream = append(stream, req{"scraper", at, Assessment{Alerted: true, Score: 0.9}})
		if i < 40 {
			stream = append(stream, req{"burst", at.Add(time.Second), Assessment{Alerted: true, Score: 0.6}})
		}
		if i%7 == 0 {
			stream = append(stream, req{fmt.Sprintf("oneshot-%d", i), at.Add(2 * time.Second),
				Assessment{Score: 0.1}})
		}
		// The burst client returns long after its state could only have
		// decayed to zero — the case eviction must not distort.
		if i == 399 {
			stream = append(stream, req{"burst", at.Add(3 * time.Second), Assessment{Score: 0.2}})
		}
	}

	run := func(window time.Duration) ([]Action, int) {
		e, err := New(Graduated())
		if err != nil {
			t.Fatal(err)
		}
		var actions []Action
		evicted := 0
		var lastSweep time.Time
		for _, r := range stream {
			if window > 0 && r.at.Sub(lastSweep) >= 10*time.Minute {
				evicted += e.EvictBefore(r.at.Add(-window))
				lastSweep = r.at
			}
			actions = append(actions, e.Apply(r.key, r.at, r.a).Action)
		}
		return actions, evicted
	}

	ref, _ := run(0)
	// Window = IdleTTL (2h), the tightest neutral setting.
	swept, evicted := run(Graduated().IdleTTL)
	if evicted == 0 {
		t.Fatal("sweeps evicted nothing; the test is vacuous")
	}
	for i := range ref {
		if ref[i] != swept[i] {
			t.Fatalf("action %d: %v with sweeps, %v without", i, swept[i], ref[i])
		}
	}
}

func TestEvictBeforeBoundsState(t *testing.T) {
	e, err := New(Graduated())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	window := Graduated().IdleTTL
	peak := 0
	for i := 0; i < 5000; i++ {
		at := base.Add(time.Duration(i) * time.Minute)
		e.Apply(fmt.Sprintf("rotating-%d", i), at, Assessment{Score: 0.05})
		if i%50 == 0 {
			e.EvictBefore(at.Add(-window))
		}
		if e.Len() > peak {
			peak = e.Len()
		}
	}
	// One client per minute with a 2h window: O(window/minute) live, with
	// slack for the 50-minute sweep cadence.
	if peak > 200 {
		t.Errorf("peak client state %d; eviction is not bounding memory", peak)
	}
}

func TestEvictBeforeKeepsHotAndPassedClients(t *testing.T) {
	e, err := New(Graduated())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	// Drive a client to a high score, then sweep with a cutoff after its
	// last request: the score has not decayed into the Allow band, so it
	// must survive.
	for i := 0; i < 20; i++ {
		e.Apply("hot", base.Add(time.Duration(i)*time.Second), Assessment{Alerted: true, Score: 1})
	}
	if n := e.EvictBefore(base.Add(time.Minute)); n != 0 {
		t.Errorf("hot client evicted (%d)", n)
	}
	if e.Len() != 1 {
		t.Errorf("Len = %d, want 1", e.Len())
	}

	// A client inside a challenge-pass window is kept even at zero score.
	e.Apply("passed", base, Assessment{Score: 0})
	e.ChallengePassed("passed", base)
	if n := e.EvictBefore(base.Add(10 * time.Minute)); n != 0 {
		t.Errorf("pass-window client evicted (%d)", n)
	}

	// Non-graduated engines hold no ladder state to evict.
	obs, err := New(Observe())
	if err != nil {
		t.Fatal(err)
	}
	obs.Apply("x", base, Assessment{})
	if n := obs.EvictBefore(base.Add(time.Hour)); n != 0 {
		t.Errorf("observe engine evicted %d", n)
	}
}

// A sweep that leaves the slab mostly free slots rebuilds it and the key
// map around the clients that remain: a ladder that survived a flood of
// one-request addresses holds memory for its survivors, not for the
// flood, and the survivors' state is untouched — it snapshots to the bytes
// of a ladder that never saw the flood and decides the same afterwards.
func TestSweepGivesAFloodBack(t *testing.T) {
	base := time.Date(2018, 3, 11, 12, 0, 0, 0, time.UTC)
	hot := Assessment{Alerted: true, Confirmed: true, Score: 0.9}
	regulars := func(e *Engine, at time.Time) (actions []Action) {
		for i := 0; i < 10; i++ {
			actions = append(actions, e.Apply(fmt.Sprintf("192.0.2.%d", i), at, hot).Action)
		}
		return actions
	}
	build := func(flood int) *Engine {
		e, err := New(Graduated())
		if err != nil {
			t.Fatal(err)
		}
		regulars(e, base)
		for i := 0; i < flood; i++ {
			e.Apply(fmt.Sprintf("10.%d.%d.%d", i>>16, i>>8&255, i&255), base, Assessment{Score: 0.05})
		}
		for m := 1; m <= 5; m++ { // the regulars climb the ladder
			regulars(e, base.Add(time.Duration(m)*time.Minute))
		}
		return e
	}
	snapshot := func(e *Engine) []byte {
		w := statecodec.NewWriter()
		e.SnapshotInto(w)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		return w.Bytes()
	}

	const flood = 5000
	flooded, calm := build(flood), build(0)
	if got := flooded.states.Cap(); got < flood {
		t.Fatalf("the flooded ladder's slab has %d slots, want at least %d", got, flood)
	}
	// The regulars were last seen five minutes after the flood: a sweep
	// one minute past the flood's IdleTTL drops the flood alone.
	at := base.Add(Graduated().IdleTTL + time.Minute)
	if n := flooded.Sweep(at); n != flood {
		t.Fatalf("sweep dropped %d clients, want the %d of the flood", n, flood)
	}
	if flooded.Len() != 10 || flooded.states.Cap() > 16 {
		t.Errorf("after the sweep: %d clients in a slab of %d slots, want 10 in at most 16", flooded.Len(), flooded.states.Cap())
	}
	calm.counts = flooded.counts // the tally is lifetime, flood included
	if !bytes.Equal(snapshot(flooded), snapshot(calm)) {
		t.Error("the survivors' state differs from a ladder that never saw the flood")
	}
	if got, want := regulars(flooded, at), regulars(calm, at); !slices.Equal(got, want) {
		t.Errorf("after the sweep the survivors are judged %v, without the flood %v", got, want)
	}
}
