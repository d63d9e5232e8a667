package sessions

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"divscrape/internal/statecodec"
)

func evictStore(t *testing.T, onEvict func(Key, *int)) *Store[int] {
	t.Helper()
	s, err := NewStore(Config[int]{
		IdleTimeout: 30 * time.Minute,
		Init:        func(*int, time.Time) {},
		OnEvict:     onEvict,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEvictBefore(t *testing.T) {
	var evicted []Key
	s := evictStore(t, func(k Key, _ *int) { evicted = append(evicted, k) })
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

	s.Touch(IPOnlyKey(1), base)
	s.Touch(IPOnlyKey(2), base.Add(10*time.Minute))
	s.Touch(IPOnlyKey(3), base.Add(20*time.Minute))

	// Cutoff strictly after key 1's touch, at key 2's touch: Before() keeps
	// the boundary session.
	if n := s.EvictBefore(base.Add(10 * time.Minute)); n != 1 {
		t.Fatalf("EvictBefore evicted %d, want 1", n)
	}
	if len(evicted) != 1 || evicted[0] != IPOnlyKey(1) {
		t.Errorf("OnEvict saw %v, want [key 1]", evicted)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if s.Evictions() != 1 {
		t.Errorf("Evictions = %d, want 1", s.Evictions())
	}

	// Sweeping again at the same cutoff is idempotent.
	if n := s.EvictBefore(base.Add(10 * time.Minute)); n != 0 {
		t.Errorf("repeat EvictBefore evicted %d, want 0", n)
	}

	// A swept key restarts as a fresh session.
	_, fresh := s.Touch(IPOnlyKey(1), base.Add(25*time.Minute))
	if !fresh {
		t.Error("evicted key did not restart as a fresh session")
	}
}

// Proactive EvictBefore at cutoff = now − IdleTimeout must be invisible to
// subsequent Touch calls: it evicts exactly the sessions lazy expiry would
// have dropped at the next Touch.
func TestEvictBeforeMatchesLazyExpiry(t *testing.T) {
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	type touch struct {
		key Key
		at  time.Time
	}
	touches := []touch{
		{IPOnlyKey(1), base},
		{IPOnlyKey(2), base.Add(5 * time.Minute)},
		{IPOnlyKey(1), base.Add(12 * time.Minute)},
		{IPOnlyKey(3), base.Add(50 * time.Minute)}, // expires 1 and 2 lazily
		{IPOnlyKey(1), base.Add(55 * time.Minute)},
		{IPOnlyKey(2), base.Add(90 * time.Minute)},
	}

	run := func(sweep bool) []bool {
		s := evictStore(t, nil)
		var freshSeq []bool
		for _, tc := range touches {
			if sweep {
				s.EvictBefore(tc.at.Add(-30 * time.Minute))
			}
			_, fresh := s.Touch(tc.key, tc.at)
			freshSeq = append(freshSeq, fresh)
		}
		return freshSeq
	}

	lazy, swept := run(false), run(true)
	for i := range lazy {
		if lazy[i] != swept[i] {
			t.Fatalf("touch %d: fresh=%v with sweeps, %v without", i, swept[i], lazy[i])
		}
	}
}

// Stamps outside what an int64 of nanoseconds can hold clamp to its ends:
// order is kept (at worst made equal), so sessions still end oldest first,
// and the clamped stamps survive a snapshot.
func TestOutOfRangeStampsKeepEvictionOrder(t *testing.T) {
	var evicted []uint32
	s := snapStore(t, 30*time.Minute)
	s.onEvict = func(k Key, _ *snapState) { evicted = append(evicted, k.IP) }
	stamps := []time.Time{
		time.Date(1, 1, 1, 0, 0, 1, 0, time.UTC),
		time.Date(1, 6, 1, 0, 0, 0, 0, time.UTC), // clamps to the same instant: not idle yet
		time.Date(1700, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2018, 3, 11, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC),
	}
	for i, at := range stamps {
		s.Touch(IPOnlyKey(uint32(i)), at)
	}
	if want := []uint32{0, 1, 2, 3}; !slices.Equal(evicted, want) {
		t.Fatalf("evicted %v so far, want %v", evicted, want)
	}

	w := statecodec.NewWriter()
	s.SnapshotInto(w)
	restored := snapStore(t, 30*time.Minute)
	if err := restored.RestoreFrom(statecodec.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	again := statecodec.NewWriter()
	restored.SnapshotInto(again)
	if !bytes.Equal(w.Bytes(), again.Bytes()) {
		t.Error("clamped stamps did not survive a snapshot round trip")
	}
	s.FlushAll()
	if want := []uint32{0, 1, 2, 3, 4, 5}; !slices.Equal(evicted, want) {
		t.Errorf("evicted %v, want %v", evicted, want)
	}
}
