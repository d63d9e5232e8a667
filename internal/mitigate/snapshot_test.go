package mitigate

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"divscrape/internal/statecodec"
)

var snapBase = time.Date(2018, 3, 13, 8, 0, 0, 0, time.UTC)

// snapStream is a deterministic mixed decision stream: some clients stay
// benign, some climb the ladder, some solve challenges.
type snapStep struct {
	key  string
	at   time.Time
	a    Assessment
	pass bool
}

func snapStream(n int) []snapStep {
	steps := make([]snapStep, 0, n)
	now := snapBase
	for i := 0; i < n; i++ {
		now = now.Add(time.Duration(3+i%11) * time.Second)
		client := i % 7
		st := snapStep{key: fmt.Sprintf("10.0.0.%d", client), at: now}
		switch {
		case client < 3: // benign browsers
			st.a = Assessment{Score: 0.05}
		case client < 5: // sustained scrapers
			st.a = Assessment{Alerted: true, Confirmed: client == 4, Score: 0.6}
		case client == 5: // borderline, occasionally alerted
			st.a = Assessment{Alerted: i%4 == 0, Score: 0.3}
		default: // challenge-solving headless bot
			st.a = Assessment{Alerted: true, Score: 0.5}
			st.pass = i%50 == 49
		}
		steps = append(steps, st)
	}
	return steps
}

// TestEngineSnapshotResumeEquivalence stops the decision stream at step
// k, snapshots the engine, restores into a fresh one and requires the
// action stream from k onward to be identical to the uninterrupted run.
func TestEngineSnapshotResumeEquivalence(t *testing.T) {
	steps := snapStream(4000)
	k := len(steps) / 2

	apply := func(e *Engine, s snapStep) Decision {
		if s.pass {
			e.ChallengePassed(s.key, s.at)
			return Decision{}
		}
		return e.Apply(s.key, s.at, s.a)
	}

	full := newEngine(t, Graduated())
	var want []Decision
	for i, s := range steps {
		d := apply(full, s)
		if i >= k {
			want = append(want, d)
		}
	}

	head := newEngine(t, Graduated())
	for _, s := range steps[:k] {
		apply(head, s)
	}
	w := statecodec.NewWriter()
	head.SnapshotInto(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	tail := newEngine(t, Graduated())
	if err := tail.RestoreFrom(statecodec.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	if tail.Len() != head.Len() {
		t.Fatalf("restored %d clients, had %d", tail.Len(), head.Len())
	}
	if tail.Counts() != head.Counts() {
		t.Fatalf("restored counts %+v, had %+v", tail.Counts(), head.Counts())
	}
	for i, s := range steps[k:] {
		if got := apply(tail, s); got != want[i] {
			t.Fatalf("decision %d diverged after resume: got %+v, want %+v", k+i, got, want[i])
		}
	}
}

// TestEngineMergedRestoreAcrossPartitions: three shard engines merged and
// redistributed over five must keep producing the decisions the original
// partition would have.
func TestEngineMergedRestoreAcrossPartitions(t *testing.T) {
	part3 := func(key string) int { return int(key[len(key)-1]) % 3 }
	part5 := func(key string) int { return int(key[len(key)-1]) % 5 }
	steps := snapStream(3000)

	shards := make([]*Engine, 3)
	for i := range shards {
		shards[i] = newEngine(t, Graduated())
	}
	reference := newEngine(t, Graduated())
	for _, s := range steps {
		if s.pass {
			shards[part3(s.key)].ChallengePassed(s.key, s.at)
			reference.ChallengePassed(s.key, s.at)
			continue
		}
		shards[part3(s.key)].Apply(s.key, s.at, s.a)
		reference.Apply(s.key, s.at, s.a)
	}

	w := statecodec.NewWriter()
	SnapshotMerged(w, shards)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	out := make([]*Engine, 5)
	for i := range out {
		out[i] = newEngine(t, Graduated())
	}
	if err := RestorePartitioned(statecodec.NewReader(w.Bytes()), out, part5); err != nil {
		t.Fatal(err)
	}

	// The repartitioned fleet must continue exactly like one engine that
	// saw everything.
	now := steps[len(steps)-1].at
	for i := 0; i < 1000; i++ {
		now = now.Add(time.Duration(2+i%7) * time.Second)
		key := fmt.Sprintf("10.0.0.%d", i%7)
		a := Assessment{Alerted: i%3 == 0, Score: 0.4}
		got := out[part5(key)].Apply(key, now, a)
		wantD := reference.Apply(key, now, a)
		if got != wantD {
			t.Fatalf("step %d client %s diverged: got %+v, want %+v", i, key, got, wantD)
		}
	}

	var total ActionCounts
	for _, e := range out {
		total.Add(e.Counts())
	}
	// Counts from before the final 1000 steps live on engine 0; totals
	// must be conserved across the reshard.
	var before ActionCounts
	for _, e := range shards {
		before.Add(e.Counts())
	}
	if total.Total() != before.Total()+1000 {
		t.Errorf("counts not conserved: %d vs %d+1000", total.Total(), before.Total())
	}
}

func TestEngineSnapshotDeterministicBytes(t *testing.T) {
	build := func() []byte {
		e, err := New(Graduated())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range snapStream(2000) {
			if s.pass {
				e.ChallengePassed(s.key, s.at)
			} else {
				e.Apply(s.key, s.at, s.a)
			}
		}
		w := statecodec.NewWriter()
		e.SnapshotInto(w)
		return append([]byte(nil), w.Bytes()...)
	}
	if string(build()) != string(build()) {
		t.Error("identical engines snapshotted to different bytes")
	}
}

func TestEngineRestoreRejectsCorruptSnapshot(t *testing.T) {
	e := newEngine(t, Graduated())
	for _, s := range snapStream(500) {
		e.Apply(s.key, s.at, s.a)
	}
	w := statecodec.NewWriter()
	e.SnapshotInto(w)
	for cut := 0; cut < w.Len(); cut += 5 {
		fresh := newEngine(t, Graduated())
		if err := fresh.RestoreFrom(statecodec.NewReader(w.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if fresh.Len() != 0 {
			t.Fatalf("failed restore left %d clients", fresh.Len())
		}
	}
	// An out-of-range ladder rung is corrupt.
	w2 := statecodec.NewWriter()
	w2.Tag(0x4D01)
	for i := 0; i < 4; i++ {
		w2.Uint64(0)
	}
	w2.Uint32(1)
	w2.String("10.0.0.1")
	w2.Float64(1.0)
	w2.Uint8(9) // invalid rung
	w2.Int(0)
	w2.Time(snapBase)
	w2.Time(snapBase)
	if err := newEngine(t, Graduated()).RestoreFrom(statecodec.NewReader(w2.Bytes())); err == nil {
		t.Error("invalid ladder rung accepted")
	}
	// So is an unanswered-challenge count a record cannot hold.
	for _, count := range []int{-1, math.MaxInt32 + 1} {
		w3 := statecodec.NewWriter()
		w3.Tag(0x4D01)
		for i := 0; i < 4; i++ {
			w3.Uint64(0)
		}
		w3.Uint32(1)
		w3.String("10.0.0.1")
		w3.Float64(1.0)
		w3.Uint8(uint8(Challenge))
		w3.Int(count)
		w3.Time(snapBase)
		w3.Time(snapBase)
		fresh := newEngine(t, Graduated())
		if err := fresh.RestoreFrom(statecodec.NewReader(w3.Bytes())); !errors.Is(err, statecodec.ErrCorrupt) || fresh.Len() != 0 {
			t.Errorf("unanswered-challenge count %d: restore returned %v and left %d clients", count, err, fresh.Len())
		}
	}
}
