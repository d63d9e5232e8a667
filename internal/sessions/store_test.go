package sessions

import (
	"testing"
	"testing/quick"
	"time"
)

var base = time.Date(2018, 3, 11, 0, 0, 0, 0, time.UTC)

type counter struct{ n int }

func newStore(t *testing.T, idle time.Duration, onEvict func(Key, *counter)) *Store[counter] {
	t.Helper()
	s, err := NewStore(Config[counter]{
		IdleTimeout: idle,
		Init:        func(*counter, time.Time) {},
		OnEvict:     onEvict,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(Config[counter]{IdleTimeout: 0, Init: func(*counter, time.Time) {}}); err == nil {
		t.Error("zero idle timeout accepted")
	}
	if _, err := NewStore(Config[counter]{IdleTimeout: time.Minute}); err == nil {
		t.Error("nil Init accepted")
	}
}

func TestTouchCreatesOnce(t *testing.T) {
	s := newStore(t, 30*time.Minute, nil)
	k := KeyFor(42, "ua")
	c1, fresh := s.Touch(k, base)
	if !fresh {
		t.Error("first touch should be fresh")
	}
	c1.n++
	c2, fresh2 := s.Touch(k, base.Add(time.Minute))
	if fresh2 {
		t.Error("second touch should not be fresh")
	}
	if c2.n != 1 {
		t.Error("state not preserved across touches")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestIdleEviction(t *testing.T) {
	var evicted []Key
	s := newStore(t, 30*time.Minute, func(k Key, c *counter) {
		evicted = append(evicted, k)
	})
	a, b := KeyFor(1, "x"), KeyFor(2, "y")
	s.Touch(a, base)
	s.Touch(b, base.Add(20*time.Minute))
	// At +45m, a (idle 45m) expires; b (idle 25m) survives.
	s.Touch(KeyFor(3, "z"), base.Add(45*time.Minute))
	if s.Peek(a) != nil {
		t.Error("a should have been evicted")
	}
	if s.Peek(b) == nil {
		t.Error("b should have survived")
	}
	if len(evicted) != 1 || evicted[0] != a {
		t.Errorf("evicted = %v, want [a]", evicted)
	}
	if s.Evictions() != 1 {
		t.Errorf("Evictions = %d", s.Evictions())
	}
}

func TestTouchRefreshesIdleTimer(t *testing.T) {
	s := newStore(t, 30*time.Minute, nil)
	k := KeyFor(1, "x")
	now := base
	// Keep touching every 20 minutes for 3 hours: never evicted.
	for i := 0; i < 9; i++ {
		now = now.Add(20 * time.Minute)
		if _, fresh := s.Touch(k, now); fresh && i > 0 {
			t.Fatalf("session restarted at step %d", i)
		}
	}
}

func TestExpiredSessionRestarts(t *testing.T) {
	s := newStore(t, 30*time.Minute, nil)
	k := KeyFor(1, "x")
	c1, _ := s.Touch(k, base)
	c1.n = 99
	c2, fresh := s.Touch(k, base.Add(2*time.Hour))
	if !fresh {
		t.Error("touch after expiry should start a new session")
	}
	if c2.n != 0 {
		t.Error("expired state leaked into the new session")
	}
}

func TestFlushAll(t *testing.T) {
	var evicted int
	s := newStore(t, 30*time.Minute, func(Key, *counter) { evicted++ })
	for i := uint32(0); i < 10; i++ {
		s.Touch(IPOnlyKey(i), base)
	}
	s.FlushAll()
	if s.Len() != 0 || evicted != 10 {
		t.Errorf("after FlushAll: len=%d evicted=%d", s.Len(), evicted)
	}
}

func TestKeySemantics(t *testing.T) {
	if KeyFor(1, "ua-a") == KeyFor(1, "ua-b") {
		t.Error("different UAs behind one IP must have distinct keys")
	}
	if KeyFor(1, "ua") == KeyFor(2, "ua") {
		t.Error("different IPs must have distinct keys")
	}
	if KeyFor(1, "ua") != KeyFor(1, "ua") {
		t.Error("key must be deterministic")
	}
	if IPOnlyKey(7) != IPOnlyKey(7) || IPOnlyKey(7) == IPOnlyKey(8) {
		t.Error("IPOnlyKey semantics wrong")
	}
}

// Property: live sessions + evictions == distinct sessions started, for
// any touch pattern.
func TestSessionConservationProperty(t *testing.T) {
	f := func(ops []struct {
		IP    uint8
		Delta uint16
	}) bool {
		s, err := NewStore(Config[counter]{
			IdleTimeout: 10 * time.Minute,
			Init:        func(*counter, time.Time) {},
		})
		if err != nil {
			return false
		}
		now := base
		var started uint64
		for _, op := range ops {
			now = now.Add(time.Duration(op.Delta%1200) * time.Second)
			if _, fresh := s.Touch(IPOnlyKey(uint32(op.IP)), now); fresh {
				started++
			}
		}
		return uint64(s.Len())+s.Evictions() == started
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: eviction happens strictly in last-touch order.
func TestEvictionOrderProperty(t *testing.T) {
	var evictedAt []time.Time
	lastSeen := make(map[Key]time.Time)
	s, err := NewStore(Config[counter]{
		IdleTimeout: 5 * time.Minute,
		Init:        func(*counter, time.Time) {},
		OnEvict: func(k Key, _ *counter) {
			evictedAt = append(evictedAt, lastSeen[k])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	now := base
	// Interleave touches over many keys with growing gaps.
	for i := 0; i < 500; i++ {
		now = now.Add(time.Duration(i%90) * time.Second)
		k := IPOnlyKey(uint32(i % 17))
		s.Touch(k, now)
		lastSeen[k] = now
	}
	s.FlushAll()
	for i := 1; i < len(evictedAt); i++ {
		if evictedAt[i].Before(evictedAt[i-1]) {
			t.Fatalf("evictions out of last-touch order at %d", i)
		}
	}
}

func BenchmarkStoreTouch(b *testing.B) {
	s, err := NewStore(Config[counter]{
		IdleTimeout: 30 * time.Minute,
		Init:        func(*counter, time.Time) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	now := base
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = now.Add(10 * time.Millisecond)
		s.Touch(IPOnlyKey(uint32(i%8192)), now)
	}
}

// Reset must return the store to its just-constructed condition in place:
// empty, zero counters, no OnEvict callbacks, and immediately reusable.
func TestResetClearsInPlace(t *testing.T) {
	evicted := 0
	s, err := NewStore(Config[int]{
		IdleTimeout: time.Minute,
		Init:        func(*int, time.Time) {},
		OnEvict:     func(Key, *int) { evicted++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	for i := 0; i < 100; i++ {
		s.Touch(KeyFor(uint32(i), "ua"), now)
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	s.Reset()
	if s.Len() != 0 {
		t.Errorf("Len after Reset = %d, want 0", s.Len())
	}
	if evicted != 0 {
		t.Errorf("Reset invoked OnEvict %d times; resets are not expiries", evicted)
	}
	if s.Evictions() != 0 {
		t.Errorf("Evictions after Reset = %d, want 0", s.Evictions())
	}
	// The store must be fully usable again, sessions starting fresh.
	v, fresh := s.Touch(KeyFor(1, "ua"), now)
	if !fresh || v == nil {
		t.Error("post-Reset Touch did not start a fresh session")
	}
}

// Evicted nodes are recycled: session churn must not grow the slab.
func TestNodeRecycling(t *testing.T) {
	s, err := NewStore(Config[int]{
		IdleTimeout: time.Second,
		Init:        func(*int, time.Time) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	key := KeyFor(7, "ua")
	// Churn one key through create → expire → recreate many times: each
	// Touch evicts the previous generation's node and immediately reuses
	// its slot, so the slab never grows beyond one node.
	for i := 0; i < 1000; i++ {
		s.Touch(key, now)
		if s.nodes.Cap() > 1 {
			t.Fatalf("slab grew to %d slots during churn", s.nodes.Cap())
		}
		now = now.Add(2 * time.Second) // expires the previous generation
	}
	if s.Evictions() != 999 {
		t.Errorf("evictions = %d, want 999", s.Evictions())
	}
	s.FlushAll()
	if s.nodes.Cap() != 1 {
		t.Errorf("slab holds %d slots after flush, want 1 (the recycled node)", s.nodes.Cap())
	}
}

// longestRun is the longest stretch of consecutive occupied index slots:
// the most probes a lookup can need.
func longestRun(index []uint64) int {
	longest, run := 0, 0
	for i := 0; i < 2*len(index); i++ {
		if index[i%len(index)] == 0 {
			run = 0
			continue
		}
		run++
		longest = max(longest, run)
	}
	return min(longest, len(index))
}

// A client chooses its addresses and User-Agents. Knowing a store's seed
// it can choose keys that all want one index slot; the same keys in a
// store with another seed — every store draws its own — spread like any
// others.
func TestChosenKeysDoNotPileUp(t *testing.T) {
	const crowd, chosen, mask = 3000, 400, 8192 - 1 // 3400 keys end in an 8192-slot index
	known, other := newStore(t, time.Hour, nil), newStore(t, time.Hour, nil)
	for _, s := range []*Store[counter]{known, other} {
		for i := uint32(0); i < crowd; i++ {
			s.Touch(IPOnlyKey(i), base)
		}
	}
	picked := 0
	for ip := uint32(1 << 20); picked < chosen; ip++ {
		if k := IPOnlyKey(ip); known.tag(k)&mask == 0 {
			known.Touch(k, base)
			other.Touch(k, base)
			picked++
		}
	}
	if len(known.index) != mask+1 || len(other.index) != mask+1 {
		t.Fatalf("index lengths %d and %d, test assumes %d", len(known.index), len(other.index), mask+1)
	}
	if run := longestRun(known.index); run < chosen {
		t.Errorf("keys chosen with the seed form a run of %d slots, want at least %d", run, chosen)
	}
	if run := longestRun(other.index); run > 64 {
		t.Errorf("the same keys under another seed form a run of %d slots", run)
	}
}
