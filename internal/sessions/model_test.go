package sessions

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"divscrape/internal/instant"
	"divscrape/internal/slab"
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

// snapshot is the bytes the documented format gives a restored model.
func (m *modelStore) snapshot() []byte {
	w := statecodec.NewWriter()
	w.Tag(tagStore)
	w.Uint32(uint32(len(m.order)))
	for _, k := range m.order {
		w.Uint32(k.IP)
		w.Uint64(k.UAHash)
		w.Time(m.live[k].lastSeen)
		w.Uint64(m.live[k].id)
	}
	return w.Bytes()
}

// modelValue is the session value under test: the id the test stamped when
// the session started, so a pointer into the wrong session is visible by
// content.
type modelValue struct{ id uint64 }

func modelledStore(t testing.TB, idle time.Duration, evicted *[]Key) *Store[modelValue] {
	t.Helper()
	s, err := NewStore(Config[modelValue]{
		IdleTimeout: idle,
		Init: func(v *modelValue, _ time.Time) {
			if v.id != 0 {
				t.Fatalf("Init was handed a slot still holding id %d", v.id)
			}
		},
		OnEvict:  func(k Key, _ *modelValue) { *evicted = append(*evicted, k) },
		Snapshot: func(w *statecodec.Writer, v *modelValue) { w.Uint64(v.id) },
		Restore: func(r *statecodec.Reader, v *modelValue) error {
			v.id = r.Uint64()
			return r.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const modelIdle = 30 * time.Minute

// modelRun holds the naive model beside two stores that differ only in
// their hash seeds, and applies every operation to all three. The stores
// must stay indistinguishable from the model — and so from each other:
// nothing observable may depend on the seed — after every step.
type modelRun struct {
	t       testing.TB
	name    string
	step    int
	stores  [2]*Store[modelValue]
	evicted [2][]Key
	model   *modelStore
	now     time.Time
	nextID  uint64
	// moves counts evictions that moved a surviving node to another id,
	// drops the ones that gave a chunk back while sessions stayed.
	moves, drops int
}

func newModelRun(t testing.TB, name string) *modelRun {
	r := &modelRun{t: t, name: name, now: base, nextID: 1,
		model: &modelStore{idle: modelIdle, live: make(map[Key]*modelSession)}}
	for i := range r.stores {
		r.stores[i] = modelledStore(t, modelIdle, &r.evicted[i])
	}
	return r
}

func (r *modelRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%s step %d: "+format, append([]any{r.name, r.step}, args...)...)
}

// mutate applies fn to both stores, counting the moves and chunk drops it
// causes. A batch that empties a store of more than a chunk must leave no
// slab behind.
func (r *modelRun) mutate(fn func(s *Store[modelValue])) {
	for _, s := range r.stores {
		live, slots := s.Len(), s.nodes.Cap()
		var newest Key // the key holding the highest id
		if live > 0 {
			newest = s.nodes.At(uint32(live)).key
		}
		fn(s)
		if _, id := s.find(newest, s.tag(newest)); live > 0 && id != 0 && int(id) != live {
			r.moves++
		}
		if s.nodes.Cap() < slots && s.Len() > 0 {
			r.drops++
		}
		if live > slab.ChunkLen && s.Len() == 0 && s.nodes.Cap() != 0 {
			r.fatalf("a store emptied of %d sessions keeps %d slots", live, s.nodes.Cap())
		}
	}
}

func (r *modelRun) touch(k Key) {
	want, wantStarted := r.model.touch(k, r.now)
	if wantStarted {
		want.id = r.nextID
		r.nextID++
	}
	r.mutate(func(s *Store[modelValue]) {
		got, started := s.Touch(k, r.now)
		if started != wantStarted {
			r.fatalf("Touch(%v) started = %v, model says %v", k, started, wantStarted)
		}
		if started {
			got.id = want.id
		} else if got.id != want.id {
			r.fatalf("Touch(%v) returned the session with id %d, want %d", k, got.id, want.id)
		}
	})
}

func (r *modelRun) evictBefore(cutoff time.Time) {
	want := r.model.evictBefore(cutoff)
	r.mutate(func(s *Store[modelValue]) {
		if got := s.EvictBefore(cutoff); got != want {
			r.fatalf("EvictBefore evicted %d, model %d", got, want)
		}
	})
}

func (r *modelRun) flushAll() {
	r.model.flushAll()
	r.mutate((*Store[modelValue]).FlushAll)
}

func (r *modelRun) reset() {
	r.model.reset()
	r.mutate((*Store[modelValue]).Reset)
}

// snapshot checks the stores' bytes against the format applied to the
// model, and carries on in stores restored from them.
func (r *modelRun) snapshot() {
	r.model = r.model.restored()
	want := r.model.snapshot()
	for i, s := range r.stores {
		w := statecodec.NewWriter()
		s.SnapshotInto(w)
		if err := w.Err(); err != nil {
			r.t.Fatal(err)
		}
		if !bytes.Equal(w.Bytes(), want) {
			r.fatalf("store %d snapshot differs from the model's:\n got %x\nwant %x", i, w.Bytes(), want)
		}
		r.stores[i] = modelledStore(r.t, modelIdle, &r.evicted[i])
		if err := r.stores[i].RestoreFrom(statecodec.NewReader(want)); err != nil {
			r.fatalf("restore: %v", err)
		}
	}
}

// check compares everything observable.
func (r *modelRun) check() {
	m := r.model
	for n, s := range r.stores {
		if s.Len() != len(m.order) || s.Evictions() != m.evictions {
			r.fatalf("store %d: Len %d Evictions %d, model %d and %d", n, s.Len(), s.Evictions(), len(m.order), m.evictions)
		}
		// Walk the LRU list newest first: expiry stops at its head, so its
		// order and stamps must be the model's.
		i := len(m.order)
		for id := s.tail; id != 0; {
			nd := s.nodes.At(id)
			k, lastSeen := nd.key, instant.Time(nd.lastSeen)
			i--
			if i < 0 || k != m.order[i] || !lastSeen.Equal(m.live[k].lastSeen) {
				r.fatalf("store %d: list position %d from oldest is %v at %v, model order %v", n, i, k, lastSeen, m.order)
			}
			if v := s.Peek(k); v == nil || v.id != m.live[k].id {
				r.fatalf("store %d: session %v holds %+v, model id %d", n, k, v, m.live[k].id)
			}
			id = nd.prev
		}
		if i != 0 {
			r.fatalf("store %d: the list walk visited %d of %d sessions", n, len(m.order)-i, len(m.order))
		}
		if len(r.evicted[n]) != len(m.evicted) {
			r.fatalf("store %d: %d sessions reached OnEvict, model %d", n, len(r.evicted[n]), len(m.evicted))
		}
		for j, k := range r.evicted[n] {
			if k != m.evicted[j] {
				r.fatalf("store %d: eviction %d was %v, model %v", n, j, k, m.evicted[j])
			}
		}
		// Never much more than four slots a session, give or take a chunk.
		if live, cap := s.Len(), s.nodes.Cap(); cap > 2*slab.ChunkLen && cap > 4*live+slab.ChunkLen {
			r.fatalf("store %d: %d live sessions in a slab of %d slots", n, live, cap)
		}
		r.checkDense(n, s)
		r.evicted[n] = r.evicted[n][:0]
	}
	m.evicted = m.evicted[:0]
	r.step++
}

// checkDense holds s to its layout: node ids are exactly 1..live, every
// index entry and list link names one of them, the list visits each once,
// every slot above live is zero and the slab holds at most one chunk more
// than live rounds up to.
func (r *modelRun) checkDense(n int, s *Store[modelValue]) {
	live := uint32(s.Len())
	entries := 0
	for _, e := range s.index {
		if e != 0 {
			entries++
			if id := uint32(e); id == 0 || id > live {
				r.fatalf("store %d: index entry %x names id %d of %d", n, e, id, live)
			}
		}
	}
	if entries != int(live) {
		r.fatalf("store %d: %d index entries for %d sessions", n, entries, live)
	}
	seen := make([]bool, live+1)
	walked, prev := uint32(0), uint32(0)
	for id := s.head; id != 0; id = s.nodes.At(id).next {
		if id > live || seen[id] {
			r.fatalf("store %d: the list walk reaches id %d again or past live %d", n, id, live)
		}
		if back := s.nodes.At(id).prev; back != prev {
			r.fatalf("store %d: id %d links back to %d, the walk came from %d", n, id, back, prev)
		}
		seen[id], prev = true, id
		walked++
	}
	if walked != live || s.tail != prev {
		r.fatalf("store %d: the walk visited %d of %d ids and ended at %d, tail %d", n, walked, live, prev, s.tail)
	}
	for id := live + 1; int(id) <= s.nodes.Cap(); id++ {
		if *s.nodes.At(id) != (node[modelValue]{}) {
			r.fatalf("store %d: slot %d above live %d holds %+v", n, id, live, *s.nodes.At(id))
		}
	}
	if limit := (int(live)+slab.ChunkLen-1)/slab.ChunkLen*slab.ChunkLen + slab.ChunkLen; s.nodes.Cap() > limit {
		r.fatalf("store %d: %d sessions in %d slots, more than %d", n, live, s.nodes.Cap(), limit)
	}
}

// Random operation sequences — shaped like the traffic the store's tail
// shortcut is for: runs of one key, with the clock jumping past the idle
// timeout between two touches of the same key, and now and then a crowd
// of one-request clients whose expiry empties chunks — must leave the
// stores and the naive model indistinguishable after every step.
func TestStoreMatchesNaiveModel(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, rand.Int63(), rand.Int63()}
	moves, drops := 0, 0
	for _, seed := range seeds {
		r := runStoreAgainstModel(t, seed)
		moves, drops = moves+r.moves, drops+r.drops
	}
	if moves == 0 || drops == 0 {
		t.Errorf("%d evictions moved a node and %d dropped a chunk: the dense layout went unexercised", moves, drops)
	}
}

func runStoreAgainstModel(t *testing.T, seed int64) *modelRun {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := newModelRun(t, fmt.Sprintf("seed %d", seed))
	key := func() Key { return Key{IP: uint32(rng.Intn(4)), UAHash: uint64(rng.Intn(3))} }

	for r.step < 3000 {
		switch op := rng.Intn(100); {
		case op < 52: // a run of one key, the clock creeping or standing still
			k := key()
			for n := 1 + rng.Intn(5); n > 0; n-- {
				r.now = r.now.Add(time.Duration(rng.Intn(3)) * time.Minute)
				r.touch(k)
			}
		case op < 67: // the same key on both sides of a jump around the idle timeout
			k := key()
			r.touch(k)
			r.now = r.now.Add(modelIdle + time.Duration(rng.Intn(3)-1)*time.Nanosecond)
			r.touch(k)
		case op < 77: // interleaved keys
			for n := 2 + rng.Intn(6); n > 0; n-- {
				r.now = r.now.Add(time.Duration(rng.Intn(200)) * time.Second)
				r.touch(key())
			}
		case op < 79: // a crowd of one-request clients
			for n, ip := 100+rng.Intn(300), uint32(rng.Intn(1<<20)); n > 0; n-- {
				r.now = r.now.Add(time.Duration(rng.Intn(2)) * time.Second)
				r.touch(Key{IP: 1000 + ip + uint32(n), UAHash: uint64(rng.Intn(2))})
			}
		case op < 86:
			r.evictBefore(r.now.Add(-time.Duration(rng.Int63n(int64(modelIdle * 3 / 2)))))
		case op < 89:
			r.flushAll()
		case op < 91:
			r.reset()
		case op < 95: // the clock jumps past every session
			r.now = r.now.Add(modelIdle + time.Duration(rng.Intn(60))*time.Minute)
		default:
			r.snapshot()
		}
		r.check()
	}
	return r
}

// FuzzStore turns bytes into an operation sequence and holds the stores
// to the model after every operation.
func FuzzStore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 1, 0, 3, 40, 0, 1, 0})
	f.Add([]byte{2, 200, 7, 3, 31, 5, 6, 4})
	f.Add([]byte{2, 255, 1, 2, 255, 2, 3, 29, 2, 100, 3, 3, 31, 6, 5, 0, 9, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := newModelRun(t, "fuzz")
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		for len(ops) > 0 && r.step < 400 {
			switch next() % 8 {
			case 0, 1: // touch one of 16 keys after 0–255 s
				r.now = r.now.Add(time.Duration(next()) * time.Second)
				b := next()
				r.touch(Key{IP: uint32(b & 7), UAHash: uint64(b >> 3 & 1)})
			case 2: // a crowd: up to 255 new clients from a base address
				n, ip := int(next()), uint32(next())<<8
				for i := 0; i < n; i++ {
					r.touch(Key{IP: 1000 + ip + uint32(i)})
				}
			case 3: // the clock jumps 0–255 minutes
				r.now = r.now.Add(time.Duration(next()) * time.Minute)
			case 4:
				r.evictBefore(r.now.Add(-time.Duration(next()) * time.Minute))
			case 5:
				r.flushAll()
			case 6:
				r.snapshot()
			default:
				r.reset()
			}
			r.check()
		}
	})
}

// FuzzStoreAgainstModel drives the model with traffic FuzzStore's crowds
// do not make: up to 256 keys touched in any order, so list order and id
// order disagree and every eviction can move a node from the middle of
// the list. Each pair of bytes is one operation and its argument.
func FuzzStoreAgainstModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 8, 2, 16, 1, 5, 40, 0, 2})
	f.Add([]byte{0, 0, 0, 100, 0, 200, 0, 70, 8, 100, 5, 29, 0, 7, 6, 1, 0, 200})
	f.Add([]byte{0, 3, 0, 130, 0, 66, 0, 3, 5, 31, 7, 0, 0, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := newModelRun(t, "fuzz")
		for ; len(ops) >= 2 && r.step < 1000; ops = ops[2:] {
			op, arg := ops[0], ops[1]
			switch op % 8 {
			case 0, 1, 2, 3: // touch key arg, the clock creeping 0–31 s
				r.now = r.now.Add(time.Duration(op>>3) * time.Second)
				r.touch(Key{IP: uint32(arg), UAHash: uint64(op & 1)})
			case 4: // a run of arg keys from op's base, one a second
				for i := 0; i < int(arg); i++ {
					r.now = r.now.Add(time.Second)
					r.touch(Key{IP: uint32(op>>3)<<8 + uint32(i)})
				}
			case 5: // the clock jumps 0–255 minutes
				r.now = r.now.Add(time.Duration(arg) * time.Minute)
			case 6:
				r.evictBefore(r.now.Add(-time.Duration(arg) * time.Minute))
			default:
				if arg%4 == 0 {
					r.snapshot()
				} else {
					r.flushAll()
				}
			}
			r.check()
		}
	})
}
