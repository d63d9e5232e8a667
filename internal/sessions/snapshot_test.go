package sessions

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"divscrape/internal/slab"
	"divscrape/internal/statecodec"
)

// snapState is a session value with a serialisable payload.
type snapState struct{ hits uint64 }

func snapStore(t *testing.T, idle time.Duration) *Store[snapState] {
	t.Helper()
	s, err := NewStore(Config[snapState]{
		IdleTimeout: idle,
		Init:        func(*snapState, time.Time) {},
		Snapshot:    func(w *statecodec.Writer, v *snapState) { w.Uint64(v.hits) },
		Restore: func(r *statecodec.Reader, v *snapState) error {
			v.hits = r.Uint64()
			return r.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSnapshotRoundTripPreservesSessions(t *testing.T) {
	s := snapStore(t, 30*time.Minute)
	for i := 0; i < 10; i++ {
		st, _ := s.Touch(KeyFor(uint32(i), "ua"), base.Add(time.Duration(i)*time.Minute))
		st.hits = uint64(i * 7)
	}

	w := statecodec.NewWriter()
	s.SnapshotInto(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	restored := snapStore(t, 30*time.Minute)
	if err := restored.RestoreFrom(statecodec.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 10 {
		t.Fatalf("Len = %d, want 10", restored.Len())
	}
	for i := 0; i < 10; i++ {
		st := restored.Peek(KeyFor(uint32(i), "ua"))
		if st == nil {
			t.Fatalf("session %d missing after restore", i)
		}
		if st.hits != uint64(i*7) {
			t.Errorf("session %d hits = %d, want %d", i, st.hits, i*7)
		}
	}

	// The restored LRU order must drive the same idle expiry: touching at
	// base+40m expires exactly the sessions idle past 30 minutes.
	restored.Touch(KeyFor(99, "ua"), base.Add(40*time.Minute))
	if got := restored.Evictions(); got != 10 {
		t.Errorf("evictions after restore = %d, want 10", got)
	}
}

func TestSnapshotIsDeterministic(t *testing.T) {
	build := func() []byte {
		s := snapStore(t, time.Hour)
		// Equal timestamps force the canonical key tie-break.
		for i := 0; i < 6; i++ {
			st, _ := s.Touch(KeyFor(uint32(100-i), "ua"), base)
			st.hits = uint64(i)
		}
		w := statecodec.NewWriter()
		s.SnapshotInto(w)
		return append([]byte(nil), w.Bytes()...)
	}
	a, b := build(), build()
	if string(a) != string(b) {
		t.Error("same sessions serialised to different bytes")
	}
}

func TestSnapshotMergedEqualsPartitionedRestore(t *testing.T) {
	part := func(k Key) int { return int(k.IP % 3) }

	// Build three key-disjoint stores, as shards would.
	shards := make([]*Store[snapState], 3)
	for i := range shards {
		shards[i] = snapStore(t, time.Hour)
	}
	for i := 0; i < 30; i++ {
		k := KeyFor(uint32(i), "ua")
		st, _ := shards[part(k)].Touch(k, base.Add(time.Duration(i)*time.Second))
		st.hits = uint64(i)
	}

	w := statecodec.NewWriter()
	SnapshotMerged(w, shards)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	// Restore across a *different* shard count.
	out := make([]*Store[snapState], 5)
	for i := range out {
		out[i] = snapStore(t, time.Hour)
	}
	part5 := func(k Key) int { return int(k.IP % 5) }
	if err := RestorePartitioned(statecodec.NewReader(w.Bytes()), out, part5); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range out {
		total += s.Len()
	}
	if total != 30 {
		t.Fatalf("restored %d sessions, want 30", total)
	}
	for i := 0; i < 30; i++ {
		k := KeyFor(uint32(i), "ua")
		st := out[part5(k)].Peek(k)
		if st == nil || st.hits != uint64(i) {
			t.Errorf("session %d misplaced or lost after repartition", i)
		}
	}
}

func TestSnapshotMergedRejectsOverlappingStores(t *testing.T) {
	a, b := snapStore(t, time.Hour), snapStore(t, time.Hour)
	k := KeyFor(7, "ua")
	a.Touch(k, base)
	b.Touch(k, base.Add(time.Second))
	w := statecodec.NewWriter()
	SnapshotMerged(w, []*Store[snapState]{a, b})
	if w.Err() == nil {
		t.Error("overlapping key sets accepted")
	}

	// The duplicate must also be caught when another session's timestamp
	// falls between the two copies, separating them in sorted order.
	a2, b2 := snapStore(t, time.Hour), snapStore(t, time.Hour)
	a2.Touch(k, base)
	a2.Touch(KeyFor(8, "other"), base.Add(time.Second))
	b2.Touch(k, base.Add(2*time.Second))
	w2 := statecodec.NewWriter()
	SnapshotMerged(w2, []*Store[snapState]{a2, b2})
	if w2.Err() == nil {
		t.Error("non-adjacent duplicate key accepted")
	}
}

func TestSnapshotWithoutHooksFails(t *testing.T) {
	s := newStore(t, time.Hour, nil) // no Snapshot/Restore hooks
	s.Touch(KeyFor(1, "x"), base)
	w := statecodec.NewWriter()
	s.SnapshotInto(w)
	if w.Err() == nil {
		t.Error("snapshot without hook accepted")
	}
	if err := s.RestoreFrom(statecodec.NewReader(nil)); err == nil {
		t.Error("restore without hook accepted")
	}
}

func TestRestoreRejectsCorruptInput(t *testing.T) {
	s := snapStore(t, time.Hour)
	for i := 0; i < 4; i++ {
		s.Touch(KeyFor(uint32(i), "ua"), base.Add(time.Duration(i)*time.Second))
	}
	w := statecodec.NewWriter()
	s.SnapshotInto(w)
	good := w.Bytes()

	for cut := 0; cut < len(good); cut += 3 {
		fresh := snapStore(t, time.Hour)
		if err := fresh.RestoreFrom(statecodec.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if fresh.Len() != 0 {
			t.Fatalf("failed restore left %d sessions", fresh.Len())
		}
	}
}

func TestRestoreRejectsDuplicateKeys(t *testing.T) {
	w := statecodec.NewWriter()
	w.Tag(tagStore)
	w.Uint32(2)
	for i := 0; i < 2; i++ { // same key twice
		w.Uint32(9)
		w.Uint64(1234)
		w.Time(base)
		w.Uint64(0) // value payload
	}
	s := snapStore(t, time.Hour)
	err := s.RestoreFrom(statecodec.NewReader(w.Bytes()))
	if !errors.Is(err, statecodec.ErrCorrupt) {
		t.Errorf("duplicate keys: err = %v", err)
	}
}

func TestRestoreRejectsOutOfOrderEntries(t *testing.T) {
	w := statecodec.NewWriter()
	w.Tag(tagStore)
	w.Uint32(2)
	w.Uint32(1)
	w.Uint64(1)
	w.Time(base.Add(time.Hour))
	w.Uint64(0)
	w.Uint32(2)
	w.Uint64(2)
	w.Time(base) // earlier than the previous entry
	w.Uint64(0)
	s := snapStore(t, time.Hour)
	if err := s.RestoreFrom(statecodec.NewReader(w.Bytes())); !errors.Is(err, statecodec.ErrCorrupt) {
		t.Errorf("out-of-order entries: err = %v", err)
	}
}

// --- slot reuse × FlushAll × Reset × what the slab keeps ----------------

// payload is a session value that grows something on the heap, as a
// detector's record grows a product table.
type payload struct {
	hits  uint64
	table []byte
}

func payloadStore(t *testing.T, onInit func(*payload)) *Store[payload] {
	t.Helper()
	s, err := NewStore(Config[payload]{
		IdleTimeout: 30 * time.Minute,
		Init:        func(v *payload, _ time.Time) { onInit(v) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFlushAllGivesTheSlabBack: a flushed flood leaves nothing behind —
// no chunk, no index sized for it — and a flushed handful keeps at most
// the one chunk it had, so what a store retains is bounded by a constant.
func TestFlushAllGivesTheSlabBack(t *testing.T) {
	s := payloadStore(t, func(*payload) {})
	const total = 4608
	for i := 0; i < total; i++ {
		st, _ := s.Touch(KeyFor(uint32(i), "ua"), base)
		st.hits = uint64(i + 1)
	}
	if s.Len() != total || s.nodes.Cap() < total {
		t.Fatalf("Len = %d, slab %d slots, want %d", s.Len(), s.nodes.Cap(), total)
	}
	s.FlushAll()
	if s.Len() != 0 {
		t.Fatalf("Len after FlushAll = %d", s.Len())
	}
	if s.nodes.Cap() != 0 || len(s.index) != minIndex {
		t.Fatalf("after flushing %d sessions the store keeps %d slots and %d index entries", total, s.nodes.Cap(), len(s.index))
	}
	st, fresh := s.Touch(KeyFor(1, "reborn"), base.Add(time.Hour))
	if !fresh || st.hits != 0 {
		t.Error("session after flush not fresh")
	}

	for i := 0; i < 40; i++ {
		s.Touch(KeyFor(uint32(i), "ua"), base.Add(time.Hour))
	}
	s.FlushAll()
	if got := s.nodes.Cap(); got > slab.ChunkLen {
		t.Errorf("a flushed handful keeps %d slots, want at most one chunk", got)
	}
}

// TestReusedSlotHoldsNothingOfTheClientBefore: an evicted session's slot
// is zeroed when it is freed — not when it is next used — and Init sees
// a zero value. Ids stay dense, so the freed slots are the ones above
// the sessions left.
func TestReusedSlotHoldsNothingOfTheClientBefore(t *testing.T) {
	dirty := 0
	s := payloadStore(t, func(v *payload) {
		if v.hits != 0 || v.table != nil {
			dirty++
		}
	})
	// 70 sessions end, 30 stay: the slab keeps its chunks.
	for i := 0; i < 100; i++ {
		st, _ := s.Touch(KeyFor(uint32(i), "ua"), base.Add(time.Duration(i/70)*time.Minute))
		st.hits, st.table = 99, make([]byte, 1<<10)
	}
	slots := s.nodes.Cap()
	if n := s.EvictBefore(base.Add(time.Second)); n != 70 {
		t.Fatalf("evicted %d of 70", n)
	}
	for id := uint32(s.Len() + 1); int(id) <= s.nodes.Cap(); id++ {
		if n := s.nodes.At(id); n.value.table != nil || n.value.hits != 0 || n.key != (Key{}) {
			t.Fatalf("free slot %d still holds %+v", id, *n)
		}
	}
	for i := 0; i < 70; i++ {
		st, fresh := s.Touch(KeyFor(uint32(1000+i), "ua"), base.Add(2*time.Minute))
		if !fresh || st.hits != 0 || st.table != nil {
			t.Fatalf("session %d: fresh=%v value=%+v", i, fresh, *st)
		}
	}
	if dirty != 0 {
		t.Errorf("Init was handed %d slots still holding an earlier client's state", dirty)
	}
	if s.nodes.Cap() != slots {
		t.Errorf("slab went %d → %d slots across evict-70, admit-70", slots, s.nodes.Cap())
	}
}

// TestRecycleFlushResetInterleaved stresses the three paths against each
// other across several generations; the invariant is conservation: every
// session is observable exactly once per generation, starts from nothing,
// and neither FlushAll nor Reset leaves a generation's slab behind.
func TestRecycleFlushResetInterleaved(t *testing.T) {
	s := payloadStore(t, func(*payload) {})
	now := base
	for gen := 0; gen < 5; gen++ {
		n := 2000 + gen*1500
		for i := 0; i < n; i++ {
			st, fresh := s.Touch(KeyFor(uint32(i), fmt.Sprintf("gen%d", gen)), now)
			if !fresh {
				t.Fatalf("gen %d: session %d not fresh", gen, i)
			}
			if st.hits != 0 {
				t.Fatalf("gen %d: dirty recycled value", gen)
			}
			st.hits++
		}
		if s.Len() != n {
			t.Fatalf("gen %d: Len = %d, want %d", gen, s.Len(), n)
		}
		if gen%2 == 0 {
			s.FlushAll()
		} else {
			s.Reset()
		}
		if s.Len() != 0 || s.nodes.Cap() != 0 {
			t.Fatalf("gen %d: %d sessions in %d slots after the store was emptied", gen, s.Len(), s.nodes.Cap())
		}
		now = now.Add(time.Hour)
	}
}
