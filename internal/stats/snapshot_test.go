package stats

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"divscrape/internal/statecodec"
)

func TestWelfordSnapshotRoundTrip(t *testing.T) {
	var a Welford
	for i := 0; i < 100; i++ {
		a.Add(float64(i%17) * 1.3)
	}
	w := statecodec.NewWriter()
	a.SnapshotInto(w)

	var b Welford
	if err := b.RestoreFrom(statecodec.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("restored %+v, want %+v", b, a)
	}
	// Both must evolve identically afterwards.
	a.Add(4.2)
	b.Add(4.2)
	if a.Mean() != b.Mean() || a.Variance() != b.Variance() {
		t.Error("accumulators diverged after restore")
	}
}

func TestCountSetSnapshotDeterministicAndRoundTrips(t *testing.T) {
	build := func(order []int) []byte {
		var s CountSet
		for _, i := range order {
			for j := 0; j <= i%5; j++ {
				s.Add(fmt.Sprintf("ua-%d", i))
			}
		}
		w := statecodec.NewWriter()
		s.SnapshotInto(w)
		return append([]byte(nil), w.Bytes()...)
	}
	fwd := make([]int, 50)
	rev := make([]int, 50)
	for i := range fwd {
		fwd[i], rev[i] = i, 49-i
	}
	a, b := build(fwd), build(rev)
	if string(a) != string(b) {
		t.Error("insertion order leaked into snapshot bytes")
	}

	var s CountSet
	s.Add("stale") // RestoreFrom replaces, it does not merge
	if err := s.RestoreFrom(statecodec.NewReader(a)); err != nil {
		t.Fatal(err)
	}
	if s.Distinct() != 50 {
		t.Errorf("Distinct = %d", s.Distinct())
	}
	if want := uint64(10 * (1 + 2 + 3 + 4 + 5)); s.Total() != want {
		t.Errorf("Total = %d, want %d", s.Total(), want)
	}
	// Every count survived: the restored set writes the same bytes, and
	// keeps counting from them.
	w := statecodec.NewWriter()
	s.SnapshotInto(w)
	if string(w.Bytes()) != string(a) {
		t.Error("restored set snapshots to different bytes")
	}
	s.Add("ua-7")
	s.Add("ua-0")
	if s.Distinct() != 50 || s.more["ua-7"] != 4 || s.firstCount != 2 {
		t.Errorf("counts after restore: ua-7 %d, ua-0 %d, distinct %d", s.more["ua-7"], s.firstCount, s.Distinct())
	}

	// The empty and the one-category sets round-trip without a map.
	for _, adds := range []int{0, 3} {
		var one, back CountSet
		for i := 0; i < adds; i++ {
			one.Add("only")
		}
		w := statecodec.NewWriter()
		one.SnapshotInto(w)
		if err := back.RestoreFrom(statecodec.NewReader(w.Bytes())); err != nil {
			t.Fatal(err)
		}
		if back.more != nil || back.Total() != uint64(adds) || back.Distinct() != one.Distinct() {
			t.Errorf("%d adds of one category restored as %+v", adds, back)
		}
	}
}

// One writer snapshots many sessions' sets in turn, as a checkpoint does:
// the sort scratch it lends carries nothing from one set into the next —
// each writes the bytes it writes through a writer of its own — and, once
// grown, costs no allocation.
func TestSnapshotScratchReuse(t *testing.T) {
	sizes := []int{40, 3, 0, 120, 1}
	counts, ids := make([]CountSet, len(sizes)), make([]IDSet, len(sizes))
	var sets []interface{ SnapshotInto(*statecodec.Writer) }
	for i, n := range sizes {
		for j := 0; j < n; j++ {
			counts[i].Add(fmt.Sprintf("ua-%d", j*7%n))
			ids[i].Add(j * 97 % 10007)
		}
		sets = append(sets, &counts[i], &ids[i])
	}
	shared := statecodec.NewWriter()
	snapshotAll := func() {
		shared.Reset()
		for _, s := range sets {
			s.SnapshotInto(shared)
		}
	}
	snapshotAll()
	at := 0
	for i, s := range sets {
		alone := statecodec.NewWriter()
		s.SnapshotInto(alone)
		got := shared.Bytes()[at : at+alone.Len()]
		if string(got) != string(alone.Bytes()) {
			t.Errorf("set %d snapshots differently through a shared writer", i)
		}
		at += alone.Len()
	}
	if at != shared.Len() {
		t.Errorf("shared writer holds %d bytes, the sets alone %d", shared.Len(), at)
	}
	if n := testing.AllocsPerRun(20, snapshotAll); n != 0 {
		t.Errorf("snapshotting %d sets through one grown writer allocates %.1f times, want 0", len(sets), n)
	}
}

// TestCountSetRestoreRejectsWhatNoWriterEmits: a repeated key used to be
// counted twice into the total; unsorted keys and zero counts are equally
// impossible output. All are corrupt.
func TestCountSetRestoreRejectsWhatNoWriterEmits(t *testing.T) {
	type entry struct {
		k string
		c uint64
	}
	payload := func(entries ...entry) []byte {
		w := statecodec.NewWriter()
		w.Tag(tagCountSet)
		w.Uint32(uint32(len(entries)))
		for _, e := range entries {
			w.String(e.k)
			w.Uint64(e.c)
		}
		return w.Bytes()
	}
	var ok CountSet
	if err := ok.RestoreFrom(statecodec.NewReader(payload(entry{"", 1}, entry{"a", 2}, entry{"b", 3}))); err != nil || ok.Total() != 6 || ok.Distinct() != 3 {
		t.Fatalf("well-formed payload: err %v, %+v", err, ok)
	}
	for name, bad := range map[string][]byte{
		"repeated key":       payload(entry{"a", 2}, entry{"a", 3}),
		"repeated later key": payload(entry{"a", 2}, entry{"b", 1}, entry{"b", 1}),
		"descending keys":    payload(entry{"b", 2}, entry{"a", 3}),
		"zero count":         payload(entry{"a", 2}, entry{"b", 0}),
		"zero first count":   payload(entry{"a", 0}),
		"repeated empty key": payload(entry{"", 1}, entry{"", 1}),
	} {
		var s CountSet
		err := s.RestoreFrom(statecodec.NewReader(bad))
		if !errors.Is(err, statecodec.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestDecayRateSnapshotRoundTrip(t *testing.T) {
	now := time.Date(2018, 3, 11, 10, 0, 0, 0, time.UTC)
	h, a := NewHalfLife(2*time.Minute), NewDecayRate()
	for i := 0; i < 30; i++ {
		now = now.Add(time.Duration(i) * time.Second)
		a.Observe(&h, now)
	}
	w := statecodec.NewWriter()
	a.SnapshotInto(w)
	b := NewDecayRate()
	if err := b.RestoreFrom(statecodec.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	later := now.Add(45 * time.Second)
	if a.Rate(&h, later) != b.Rate(&h, later) {
		t.Errorf("rates diverged: %g vs %g", a.Rate(&h, later), b.Rate(&h, later))
	}
}
