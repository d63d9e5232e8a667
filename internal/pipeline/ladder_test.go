package pipeline

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"divscrape/internal/ensemble"
	"divscrape/internal/iprep"
	"divscrape/internal/mitigate"
	"divscrape/internal/shard"
	"divscrape/internal/sitemodel"
	"divscrape/internal/statecodec"
	"divscrape/internal/stream"
	"divscrape/internal/workload"
)

// wideMix is a churning population — thousands of visitors who come and
// go — over long enough that a two-hour window evicts most of them.
func wideMix(t testing.TB) []workload.Event {
	t.Helper()
	p := workload.CalibratedProfile(1)
	p.HumanVisitors, p.StealthBots = 2000, 100
	gen, err := workload.NewGenerator(workload.Config{Seed: 5, Duration: 8 * time.Hour, Profile: p})
	if err != nil {
		t.Fatal(err)
	}
	events, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func ladderPipe(t testing.TB, mode Mode, shards int, policy *mitigate.Policy, window time.Duration) *Pipeline {
	t.Helper()
	p, err := New(Config{
		Factories:   pairFactories(),
		Reputation:  iprep.BuildFeed(),
		Mitigation:  policy,
		Mode:        mode,
		Shards:      shards,
		EvictWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ladderCheckpoint is the CLI's state layout: pipeline, then ladder.
func ladderCheckpoint(t *testing.T, p *Pipeline) []byte {
	t.Helper()
	w := statecodec.NewWriter()
	if err := p.Checkpoint(w); err != nil {
		t.Fatal(err)
	}
	p.SnapshotLadder(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), w.Bytes()...)
}

// The shards' ladders against the one they replaced. Before the shard
// owned the step, scrapedetect -follow -window 2h -mitigate graduated ran
// one engine in its sink — challenge flow exempt, the vote applied — swept
// by a stream.Sweeper through Engine.EvictBefore(now − window). Now every
// shard applies its own engine and sweeps it with Engine.Sweep(now) on its
// own cadence. On a wide, churning mix the action each request gets, the
// final tally and — sequential against sharded — the state bytes must not
// move: that is Engine.Sweep's neutrality claim, tested.
func TestShardLaddersEqualTheSinkLadderTheyReplaced(t *testing.T) {
	const window = 2 * time.Hour
	events := wideMix(t)
	policy := mitigate.Graduated()

	// The reference: a pipeline without a policy, the old sink beside it.
	engine, err := mitigate.New(policy)
	if err != nil {
		t.Fatal(err)
	}
	sweeper, err := stream.NewSweeper(window, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sweeper.Register("mitigate", engine)
	want := make([]mitigate.Action, len(events))
	passed := 0
	ref := ladderPipe(t, Sequential, 1, nil, window)
	if err := ref.Run(context.Background(), sourceFrom(events), func(d Decision) error {
		e := &d.Req.Entry
		sweeper.Observe(e.Time)
		switch kind := d.Req.Target.Kind; {
		case kind == sitemodel.KindChallengeScript && e.Method == "GET":
		case kind == sitemodel.KindChallengeVerify && e.Method == "POST":
			engine.ChallengePassed(e.RemoteAddr, e.Time)
			passed++
		default:
			want[d.Req.Seq] = engine.Apply(e.RemoteAddr, e.Time, ensemble.Assess(d.Verdicts)).Action
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, evicted := sweeper.Stats(); evicted == 0 || passed == 0 {
		t.Fatalf("the reference swept %d ladder clients and saw %d beacons; the comparison is vacuous", evicted, passed)
	}
	if c := engine.Counts(); c.Tarpitted == 0 || c.Challenged == 0 || c.Blocked == 0 {
		t.Fatalf("the reference ladder never left allow: %+v", c)
	}

	var seqState []byte
	for _, tc := range []struct {
		mode   Mode
		shards int
	}{{Sequential, 1}, {Sharded, 3}} {
		p := ladderPipe(t, tc.mode, tc.shards, &policy, window)
		got := make([]mitigate.Action, len(events))
		sinks := make([]Sink, p.Shards())
		for i := range sinks {
			sinks[i] = func(d Decision) error {
				if d.Outcome.Judged != (d.Outcome.Flow == shard.FlowNone) {
					return fmt.Errorf("seq %d: flow %d judged %v", d.Req.Seq, d.Outcome.Flow, d.Outcome.Judged)
				}
				got[d.Req.Seq] = d.Outcome.Ladder.Action // distinct elements: no two shards share a request
				return nil
			}
		}
		if tc.mode == Sequential {
			err = p.Run(context.Background(), sourceFrom(events), sinks[0])
		} else {
			err = p.RunRelaxed(context.Background(), sourceFrom(events), sinks)
		}
		if err != nil {
			t.Fatal(err)
		}
		for seq := range want {
			if got[seq] != want[seq] {
				t.Fatalf("mode %d: request %d got %v, the sink ladder gave %v", tc.mode, seq, got[seq], want[seq])
			}
		}
		if c := p.LadderCounts(); c != engine.Counts() {
			t.Errorf("mode %d: final tally %+v, the sink ladder's %+v", tc.mode, c, engine.Counts())
		}
		if sweeps, evicted := p.EvictionStats(); sweeps == 0 || evicted == 0 {
			t.Errorf("mode %d: sweeps=%d evicted=%d; the window never bit", tc.mode, sweeps, evicted)
		}
		// Shards sweep on their own cadences, so idle clients one run has
		// dropped another may still hold: settle both before comparing.
		for _, sh := range p.shards {
			sh.Sweep(events[len(events)-1].Entry.Time)
		}
		if state := ladderCheckpoint(t, p); tc.mode == Sequential {
			seqState = state
		} else if string(state) != string(seqState) {
			t.Errorf("sharded state (%d bytes) differs from sequential (%d bytes) after the same stream", len(state), len(seqState))
		}
	}
}

// A stream cut into segments — what a periodic checkpoint does — decides
// and ends exactly as the uncut one, under ordered delivery too, and a
// checkpoint taken at a cut resumes at another shard count to the same
// end state.
func TestLadderSurvivesSegmentsAndResharding(t *testing.T) {
	events := generate(t, 6)
	policy := mitigate.Graduated()
	whole := ladderPipe(t, Sequential, 1, &policy, 0)
	var want []mitigate.Decision
	if err := whole.Run(context.Background(), sourceFrom(events), func(d Decision) error {
		want = append(want, d.Outcome.Ladder)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	end := ladderCheckpoint(t, whole)

	cut := len(events) / 2
	head := ladderPipe(t, Sharded, 3, &policy, 0)
	seq := 0
	check := func(d Decision) error {
		if d.Outcome.Ladder != want[seq] {
			return fmt.Errorf("request %d decided %+v, uncut %+v", seq, d.Outcome.Ladder, want[seq])
		}
		seq++
		return nil
	}
	if err := head.Run(context.Background(), sourceFrom(events[:cut]), check); err != nil {
		t.Fatal(err)
	}
	w := statecodec.NewWriter()
	if err := head.Checkpoint(w); err != nil {
		t.Fatal(err)
	}
	head.SnapshotLadder(w)

	tail := ladderPipe(t, Sharded, 5, &policy, 0)
	r := statecodec.NewReader(w.Bytes())
	if err := tail.ResumeFrom(r); err != nil {
		t.Fatal(err)
	}
	if err := tail.RestoreLadder(r); err != nil {
		t.Fatal(err)
	}
	if err := tail.Run(context.Background(), sourceFrom(events[cut:]), check); err != nil {
		t.Fatal(err)
	}
	if seq != len(events) {
		t.Fatalf("%d of %d decisions delivered", seq, len(events))
	}
	if got := ladderCheckpoint(t, tail); string(got) != string(end) {
		t.Error("cut, checkpointed at 3 shards and resumed at 5, the end state differs from the uncut sequential run's")
	}
}

// Peer digests merge into a running sharded pipeline. Once the shard set
// has been handed out as a cluster.Backend the judging loops take the
// shard locks, so under -race this is the lock discipline's test; the
// merged clients must also be there at the end, on the shards their
// requests would reach.
func TestClusterBackendMergesIntoRunningShards(t *testing.T) {
	events := generate(t, 3)
	policy := mitigate.Graduated()
	p := ladderPipe(t, Sharded, 3, &policy, time.Hour)
	be, err := p.ClusterBackend()
	if err != nil {
		t.Fatal(err)
	}
	// Strangers to the log, so the run itself never touches them.
	strangers := make([]mitigate.ClientDigest, 64)
	for i := range strangers {
		strangers[i] = mitigate.ClientDigest{
			Key: fmt.Sprintf("203.0.113.%d", i), Score: 3, Level: mitigate.Block,
			LastSeen: events[len(events)-1].Entry.Time,
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			be.MergeLadderDigest(strangers[i%len(strangers)])
			be.LadderDigestsSince(time.Time{}, func(mitigate.ClientDigest) {})
			be.SetEscalationFrozen(i%2 == 0)
		}
	}()
	sinks := make([]Sink, p.Shards())
	for i := range sinks {
		sinks[i] = func(Decision) error { return nil }
	}
	err = p.RunRelaxed(context.Background(), sourceFrom(events), sinks)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range strangers {
		be.MergeLadderDigest(d) // whatever the merger had not reached yet
	}
	held := map[string]bool{}
	be.LadderDigestsSince(time.Time{}, func(d mitigate.ClientDigest) { held[d.Key] = true })
	for _, d := range strangers {
		if !held[d.Key] {
			t.Fatalf("merged client %s is gone", d.Key)
		}
		i, _ := shard.OfKey(d.Key, p.Shards())
		if p.shards[i].Engine.Level(d.Key) != mitigate.Block {
			t.Fatalf("merged client %s is not on shard %d, where its requests route", d.Key, i)
		}
	}
	if be.MergeLadderDigest(mitigate.ClientDigest{Key: "not-an-address", Level: mitigate.Block}) {
		t.Error("a digest whose key routes nowhere was merged")
	}
	if _, err := ladderPipe(t, Sharded, 2, nil, 0).ClusterBackend(); err == nil {
		t.Error("a pipeline without a ladder handed out a cluster backend")
	}
}
