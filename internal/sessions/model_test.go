package sessions

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"divscrape/internal/statecodec"
)

// modelStore is the store as its documentation describes it and nothing
// more: a map of live sessions and a slice giving their last-touch order.
// Every operation is a linear walk; there is no shortcut to get wrong.
type modelStore struct {
	idle      time.Duration
	live      map[Key]*modelSession
	order     []Key // least to most recently touched
	evictions uint64
	evicted   []Key // OnEvict order
}

type modelSession struct {
	lastSeen time.Time
	id       uint64 // stamped by the test when the session starts
}

func (m *modelStore) dropOldest() Key {
	k := m.order[0]
	m.order = m.order[1:]
	delete(m.live, k)
	return k
}

func (m *modelStore) evictBefore(cutoff time.Time) int {
	n := 0
	for len(m.order) > 0 && m.live[m.order[0]].lastSeen.Before(cutoff) {
		m.evicted = append(m.evicted, m.dropOldest())
		m.evictions++
		n++
	}
	return n
}

func (m *modelStore) touch(key Key, now time.Time) (*modelSession, bool) {
	m.evictBefore(now.Add(-m.idle))
	if s, ok := m.live[key]; ok {
		for i, k := range m.order {
			if k == key {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
		m.order = append(m.order, key)
		s.lastSeen = now
		return s, false
	}
	s := &modelSession{lastSeen: now}
	m.live[key] = s
	m.order = append(m.order, key)
	return s, true
}

func (m *modelStore) flushAll() { m.evictBefore(time.Unix(1<<40, 0)) }

// reset drops everything without observing it, diagnostics included.
func (m *modelStore) reset() {
	for len(m.order) > 0 {
		m.dropOldest()
	}
	m.evictions = 0
}

// restored is what a snapshot of m restores to: pending expiry settled as
// of the newest touch, sessions ordered by (lastSeen, key), diagnostics at
// zero.
func (m *modelStore) restored() *modelStore {
	if n := len(m.order); n > 0 {
		m.evictBefore(m.live[m.order[n-1]].lastSeen.Add(-m.idle))
	}
	r := &modelStore{idle: m.idle, live: make(map[Key]*modelSession), evicted: m.evicted}
	for _, k := range m.order {
		s := *m.live[k]
		r.live[k] = &s
		r.order = append(r.order, k)
	}
	sort.SliceStable(r.order, func(i, j int) bool {
		a, b := r.order[i], r.order[j]
		if la, lb := r.live[a].lastSeen, r.live[b].lastSeen; !la.Equal(lb) {
			return la.Before(lb)
		}
		if a.IP != b.IP {
			return a.IP < b.IP
		}
		return a.UAHash < b.UAHash
	})
	return r
}

// modelValue is the session value under test: the id the test stamped when
// the session started, so a pointer into the wrong session is visible by
// content as well as by address.
type modelValue struct{ id uint64 }

func modelledStore(t *testing.T, idle time.Duration, recycle bool, evicted *[]Key) *Store[modelValue] {
	t.Helper()
	cfg := Config[modelValue]{
		IdleTimeout: idle,
		New:         func(time.Time) *modelValue { return &modelValue{} },
		OnEvict:     func(k Key, _ *modelValue) { *evicted = append(*evicted, k) },
		Snapshot:    func(w *statecodec.Writer, v *modelValue) { w.Uint64(v.id) },
		Restore: func(r *statecodec.Reader, v *modelValue) error {
			v.id = r.Uint64()
			return r.Err()
		},
	}
	if recycle {
		cfg.Recycle = func(v *modelValue) { *v = modelValue{} }
	}
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Random operation sequences — shaped like the traffic the store's tail
// shortcut is for: runs of one key, with the clock jumping past the idle
// timeout between two touches of the same key — must leave the store and
// the naive model indistinguishable after every step.
func TestStoreMatchesNaiveModel(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, rand.Int63(), rand.Int63()}
	for i, seed := range seeds {
		runStoreAgainstModel(t, seed, i%2 == 0)
	}
}

func runStoreAgainstModel(t *testing.T, seed int64, recycle bool) {
	t.Helper()
	const idle = 30 * time.Minute
	rng := rand.New(rand.NewSource(seed))
	var evicted []Key
	store := modelledStore(t, idle, recycle, &evicted)
	model := &modelStore{idle: idle, live: make(map[Key]*modelSession)}
	ptrs := make(map[Key]*modelValue) // the address each live session was last returned at
	now := base
	nextID := uint64(1)
	key := func() Key { return Key{IP: uint32(rng.Intn(4)), UAHash: uint64(rng.Intn(3))} }

	touch := func(step int, k Key) {
		got, started := store.Touch(k, now)
		want, wantStarted := model.touch(k, now)
		if started != wantStarted {
			t.Fatalf("seed %d step %d: Touch(%v) started = %v, model says %v", seed, step, k, started, wantStarted)
		}
		if started {
			if got.id != 0 {
				t.Fatalf("seed %d step %d: new session for %v carries id %d of an earlier one", seed, step, k, got.id)
			}
			got.id, want.id = nextID, nextID
			nextID++
		} else if got != ptrs[k] || got.id != want.id {
			t.Fatalf("seed %d step %d: Touch(%v) returned %p (id %d), want %p (id %d)", seed, step, k, got, got.id, ptrs[k], want.id)
		}
		ptrs[k] = got
	}

	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(100); {
		case op < 55: // a run of one key, the clock creeping or standing still
			k := key()
			for n := 1 + rng.Intn(5); n > 0; n-- {
				now = now.Add(time.Duration(rng.Intn(3)) * time.Minute)
				touch(step, k)
			}
		case op < 70: // the same key on both sides of a jump around the idle timeout
			k := key()
			touch(step, k)
			now = now.Add(idle + time.Duration(rng.Intn(3)-1)*time.Nanosecond)
			touch(step, k)
		case op < 80: // interleaved keys
			for n := 2 + rng.Intn(6); n > 0; n-- {
				now = now.Add(time.Duration(rng.Intn(200)) * time.Second)
				touch(step, key())
			}
		case op < 88:
			cutoff := now.Add(-time.Duration(rng.Int63n(int64(idle * 3 / 2))))
			if got, want := store.EvictBefore(cutoff), model.evictBefore(cutoff); got != want {
				t.Fatalf("seed %d step %d: EvictBefore evicted %d, model %d", seed, step, got, want)
			}
		case op < 91:
			store.FlushAll()
			model.flushAll()
		case op < 94:
			store.Reset()
			model.reset()
		default: // snapshot, and carry on in a store restored from it
			w := statecodec.NewWriter()
			store.SnapshotInto(w)
			if err := w.Err(); err != nil {
				t.Fatal(err)
			}
			model = model.restored()
			store = modelledStore(t, idle, recycle, &evicted)
			if err := store.RestoreFrom(statecodec.NewReader(w.Bytes())); err != nil {
				t.Fatalf("seed %d step %d: restore: %v", seed, step, err)
			}
			for k := range model.live {
				ptrs[k] = store.Peek(k)
			}
		}

		if store.Len() != len(model.order) || store.Evictions() != model.evictions {
			t.Fatalf("seed %d step %d: Len %d Evictions %d, model %d and %d",
				seed, step, store.Len(), store.Evictions(), len(model.order), model.evictions)
		}
		i := len(model.order)
		store.RangeNewest(func(k Key, lastSeen time.Time) bool {
			i--
			if i < 0 || k != model.order[i] || !lastSeen.Equal(model.live[k].lastSeen) {
				t.Fatalf("seed %d step %d: RangeNewest position %d from oldest is %v at %v, model order %v", seed, step, i, k, lastSeen, model.order)
			}
			if v := store.Peek(k); v == nil || v.id != model.live[k].id {
				t.Fatalf("seed %d step %d: session %v holds %+v, model id %d", seed, step, k, v, model.live[k].id)
			}
			return true
		})
		if i != 0 {
			t.Fatalf("seed %d step %d: RangeNewest visited %d of %d sessions", seed, step, len(model.order)-i, len(model.order))
		}
		if len(evicted) != len(model.evicted) {
			t.Fatalf("seed %d step %d: %d sessions reached OnEvict, model %d", seed, step, len(evicted), len(model.evicted))
		}
		for j := range evicted {
			if evicted[j] != model.evicted[j] {
				t.Fatalf("seed %d step %d: eviction %d was %v, model %v", seed, step, j, evicted[j], model.evicted[j])
			}
		}
		evicted, model.evicted = evicted[:0], model.evicted[:0]
	}
}
