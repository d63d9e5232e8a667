package stats

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
	"unsafe"

	"divscrape/internal/statecodec"
)

// idModel is what IDSet replaced and is checked against.
type idModel map[int]struct{}

func (m idModel) listing() []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// encoding is what SnapshotInto must write for the model's set: the count,
// then every id in ascending order.
func (m idModel) encoding() []byte {
	w := statecodec.NewWriter()
	ids := m.listing()
	w.Uint32(uint32(len(ids)))
	for _, id := range ids {
		w.Int(id)
	}
	return w.Bytes()
}

// fitsInline reports whether the model's set is one IDSet keeps inline.
func (m idModel) fitsInline() bool {
	if len(m) > idInline {
		return false
	}
	for id := range m {
		if id > math.MaxUint32 {
			return false
		}
	}
	return true
}

// snapshotIDs returns s's snapshot bytes and the ids decoded from them.
func snapshotIDs(t testing.TB, s *IDSet) ([]byte, []int) {
	t.Helper()
	w := statecodec.NewWriter()
	s.SnapshotInto(w)
	r := statecodec.NewReader(w.Bytes())
	ids := make([]int, r.Count(8))
	for i := range ids {
		ids[i] = r.Int()
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("snapshot does not decode: err %v, %d bytes left", r.Err(), r.Remaining())
	}
	return w.Bytes(), ids
}

// checkAgainst compares Len, the snapshot bytes, a restore into a fresh set
// and the set's form with the model, and bounds the table's slack.
func checkAgainst(t testing.TB, s *IDSet, m idModel) {
	t.Helper()
	if s.Len() != len(m) {
		t.Fatalf("Len = %d, model holds %d", s.Len(), len(m))
	}
	raw, ids := snapshotIDs(t, s)
	if !slices.Equal(ids, m.listing()) {
		t.Fatalf("listing differs from the model: %d ids against %d", len(ids), len(m))
	}
	if string(raw) != string(m.encoding()) {
		t.Fatal("snapshot bytes differ from the model's sorted encoding")
	}
	// Only Reset shrinks a set, and the model is cleared with it: the set
	// holds a table exactly when its ids do not fit inline.
	if inline := s.table == nil; inline != m.fitsInline() {
		t.Fatalf("%d ids held inline = %v, want %v", len(m), inline, m.fitsInline())
	}
	var back IDSet
	if err := back.RestoreFrom(statecodec.NewReader(raw)); err != nil {
		t.Fatalf("restore of own snapshot: %v", err)
	}
	if again, _ := snapshotIDs(t, &back); string(again) != string(raw) || back.Len() != s.Len() {
		t.Fatal("restored set snapshots to different bytes")
	}
	if (back.table == nil) != (s.table == nil) {
		t.Fatalf("restored set inline = %v, original %v", back.table == nil, s.table == nil)
	}
	checkSlack(t, s)
	checkSlack(t, &back)
}

// checkSlack: a table has at most four slots a block, but for the first
// table of a set that outgrew its inline ids, which has idFirstTable slots
// and more than idInline ids. Either way it costs at most 43 bytes an id.
func checkSlack(t testing.TB, s *IDSet) {
	t.Helper()
	if s.table == nil {
		return
	}
	limit := 4 * s.word(wordUsed)
	if s.Len() > idInline {
		limit = max(idFirstTable, limit)
	}
	if len(s.table) > limit {
		t.Fatalf("%d table slots for %d blocks and %d ids", len(s.table), s.word(wordUsed), s.Len())
	}
	if 16*len(s.table) > 43*s.Len() {
		t.Fatalf("a %d-byte table for %d ids", 16*len(s.table), s.Len())
	}
}

// idDraws are the id shapes the set must be exact over: dense runs, strides
// that halve a block's use and that put every id in a block of its own,
// block edges, both ends of the range, and ids no catalogue has.
var idDraws = []struct {
	name string
	draw func(r *rand.Rand, i int) int
}{
	{"dense run", func(_ *rand.Rand, i int) int { return 1000 + i }},
	{"stride 2", func(_ *rand.Rand, i int) int { return 2 * i }},
	{"stride 64", func(_ *rand.Rand, i int) int { return 64 * i }},
	{"block edges", func(r *rand.Rand, _ int) int { return []int{0, 63, 64, 127, 128}[r.IntN(5)] + 64*r.IntN(3) }},
	{"extremes", func(r *rand.Rand, _ int) int {
		return []int{0, 1, math.MaxInt, math.MaxInt - 1, math.MaxInt - 64}[r.IntN(5)]
	}},
	{"small catalogue", func(r *rand.Rand, _ int) int { return r.IntN(5000) }},
	{"sparse 62-bit", func(r *rand.Rand, _ int) int { return int(r.Uint64() >> 2) }},
	{"negative", func(r *rand.Rand, i int) int { return i%7 - 3*r.IntN(2) }},
	{"inline edge", func(r *rand.Rand, _ int) int { return 100 * r.IntN(idInline+2) }},
	{"around 2³²", func(r *rand.Rand, _ int) int {
		if r.IntN(8) == 0 {
			return math.MaxUint32 - 1 + r.IntN(3)
		}
		return r.IntN(idInline + 1)
	}},
}

// TestIDSetAgainstModel drives random operation sequences through the set
// and through a map, comparing after every step that can tell them apart.
func TestIDSetAgainstModel(t *testing.T) {
	for _, d := range idDraws {
		t.Run(d.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(7, uint64(len(d.name))))
			var s IDSet
			m := idModel{}
			for i := 0; i < 3000; i++ {
				switch op := rng.IntN(100); {
				case op < 90:
					id := d.draw(rng, i)
					s.Add(id)
					if id >= 0 {
						m[id] = struct{}{}
					}
					if s.Len() != len(m) {
						t.Fatalf("step %d: Len = %d after Add(%d), model holds %d", i, s.Len(), id, len(m))
					}
				case op < 97:
					checkAgainst(t, &s, m)
				case op < 99:
					// Restore into a set that already holds something else.
					raw, _ := snapshotIDs(t, &s)
					other := IDSet{}
					other.Add(i)
					if err := other.RestoreFrom(statecodec.NewReader(raw)); err != nil {
						t.Fatal(err)
					}
					s = other
				default:
					s.Reset()
					clear(m)
				}
			}
			checkAgainst(t, &s, m)
		})
	}

	// Across the boundary one id at a time, twice with a Reset between: the
	// idInline-th id still sits inline and the next makes the table, unless
	// an id of 2³² or more made it earlier. checkAgainst asserts the form,
	// the snapshot bytes and a restore after every step; negative ids
	// change nothing.
	for _, tc := range []struct {
		name string
		big  int // the fourth id, when not negative
	}{{"by count", -1}, {"2³²-1 stays inline", math.MaxUint32}, {"2³² spills", math.MaxUint32 + 1}, {"MaxInt spills", math.MaxInt}} {
		t.Run("boundary "+tc.name, func(t *testing.T) {
			var s IDSet
			m := idModel{}
			for range 2 {
				for i := 0; i <= idInline; i++ {
					id := 3 * i
					if i == 3 && tc.big >= 0 {
						id = tc.big
					}
					s.Add(id)
					s.Add(-1 - id)
					s.Add(id)
					m[id] = struct{}{}
					checkAgainst(t, &s, m)
				}
				s.Reset()
				clear(m)
				checkAgainst(t, &s, m)
			}
		})
	}
}

// TestIDSetSparseFlood: 10⁵ ids that share no block. The table stays within
// four slots per block and the run is quick — a sorted slice of ids or
// blocks would shift half of itself on every insert and take tens of
// seconds here.
func TestIDSetSparseFlood(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	var s IDSet
	m := idModel{}
	start := time.Now()
	for len(m) < 100_000 {
		id := int(rng.Uint64() >> 2)
		s.Add(id)
		m[id] = struct{}{}
	}
	for id := range m { // every id again: none is new
		s.Add(id)
	}
	checkAgainst(t, &s, m)
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("sparse flood took %v", el)
	}
	if s.word(wordUsed) != len(m) {
		t.Logf("%d blocks for %d ids: some ids shared a block", s.word(wordUsed), len(m))
	}
}

// TestIDSetChosenIDsDoNotPileUp: without the per-process seed these keys all
// hash to slot 0 of any table, every insert walks every block before it,
// and 20 000 of them cost 2·10⁸ probes. Seeded, they spread like any others.
// (The bound is loose: random keys at this load give runs of a few dozen.)
func TestIDSetChosenIDsDoNotPileUp(t *testing.T) {
	fibInverse := uint64(0xF1DE83E19937733D) // idHashMul · fibInverse ≡ 1 (mod 2⁶⁴)
	if mul := uint64(idHashMul); mul*fibInverse != 1 {
		t.Fatalf("fibInverse is not the hash multiplier's inverse: product %#x", mul*fibInverse)
	}
	var s IDSet
	const want = 20_000
	for p := uint64(1); s.Len() < want; p++ {
		// key·multiplier ≡ p, and p's top 32 bits are zero; one key in 128
		// is small enough to be a block of non-negative ids.
		if key := p * fibInverse; key < 1<<57 {
			s.Add(int(key << 6))
		}
	}
	if s.word(wordUsed) != want {
		t.Fatalf("%d blocks for %d chosen ids", s.word(wordUsed), want)
	}
	longest, run := 0, 0
	for _, b := range s.table {
		if b.bits == 0 {
			run = 0
			continue
		}
		if run++; run > longest {
			longest = run
		}
	}
	if longest > 500 {
		t.Errorf("longest run of occupied slots is %d of %d blocks: chosen ids pile up", longest, s.word(wordUsed))
	}
}

// TestIDSetValueCopy pins what copying the struct means. While the ids sit
// inline a copy is a second, independent set — nothing inside points back
// into the struct — and the recycle sequence of a session record (copy out,
// Reset, assign back) leaves a working empty set.
func TestIDSetValueCopy(t *testing.T) {
	var a IDSet
	for id := 0; a.Len() < idInline-2; id += 3 {
		a.Add(id)
	}
	if a.table != nil {
		t.Fatalf("%d ids should fit inline", a.Len())
	}
	n := a.Len()
	b := a
	b.Add(1)
	b.Add(2)
	if a.Len() != n || b.Len() != n+2 || b.table != nil {
		t.Fatalf("copy is not independent: original %d (was %d), copy %d", a.Len(), n, b.Len())
	}
	a.Add(4)
	if _, ids := snapshotIDs(t, &b); slices.Contains(ids, 4) {
		t.Fatal("an Add to the original showed up in the copy")
	}

	type record struct {
		products IDSet
		other    int
	}
	for _, size := range []int{idInline, idInline + 1, 64 * 8 * 40} { // inline, just spilled, grown
		rec := &record{other: 7}
		for id := 0; id < size; id++ {
			rec.products.Add(id)
		}
		products := rec.products
		products.Reset()
		*rec = record{products: products}
		if rec.products.Len() != 0 || rec.products.table != nil {
			t.Fatalf("size %d: recycled set holds %d ids, table %v", size, rec.products.Len(), rec.products.table != nil)
		}
		m := idModel{}
		for id := 5; id < 400; id += 5 {
			rec.products.Add(id)
			m[id] = struct{}{}
		}
		checkAgainst(t, &rec.products, m)
	}
}

// TestIDSetAllocations: a set whose ids sit inline never allocates, and
// neither does resetting and refilling it — the life of a recycled human
// session. The spill is one allocation, and a 5 000-id sweep allocates
// only its table's doublings after it.
func TestIDSetAllocations(t *testing.T) {
	var s IDSet
	if n := testing.AllocsPerRun(100, func() {
		s.Reset()
		for id := 0; id < idInline; id++ {
			s.Add(1000 * id)
		}
	}); n != 0 {
		t.Errorf("Reset and refill of %d inline ids allocates %.1f times", idInline, n)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.Reset()
		for id := 0; id <= idInline; id++ {
			s.Add(1000 * id) // a block per id: the spill sizes its table for all of them
		}
	}); n != 1 {
		t.Errorf("a spill allocates %.1f times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.Reset()
		s.Add(1 << 32) // what one request for /product/4294967296 records
	}); n != 1 || len(s.table) != 2 {
		t.Errorf("one id of 2³² allocates %.1f times for a %d-slot table, want once for 2 slots", n, len(s.table))
	}
	if n := testing.AllocsPerRun(20, func() {
		s.Reset()
		for id := 0; id < 5000; id++ {
			s.Add(id)
		}
	}); n > 4 {
		t.Errorf("a 5000-id sweep allocates %.1f times, want the spill and 3 doublings at most", n)
	}
	if got, want := len(s.table)*16, 2048; got != want {
		t.Errorf("a 5000-id sweep holds a %d-byte table, want %d", got, want)
	}
}

// TestIDSetSize gates the record every arcane, trajectory and bayes session
// embeds: the inline ids and the table header, no more.
func TestIDSetSize(t *testing.T) {
	const ceiling = 88
	size := unsafe.Sizeof(IDSet{})
	t.Logf("IDSet is %d B (ceiling %d B, %d ids inline)", size, ceiling, idInline)
	if size > ceiling {
		t.Errorf("IDSet is %d B, ceiling %d B", size, ceiling)
	}
}

func TestIDSetRestoreRejectsWhatNoWriterEmits(t *testing.T) {
	payload := func(ids ...int) []byte {
		w := statecodec.NewWriter()
		w.Uint32(uint32(len(ids)))
		for _, id := range ids {
			w.Int(id)
		}
		return w.Bytes()
	}
	var s IDSet
	if err := s.RestoreFrom(statecodec.NewReader(payload(0, 63, 64, math.MaxInt))); err != nil || s.Len() != 4 {
		t.Fatalf("well-formed payload: err %v, Len %d", err, s.Len())
	}
	for name, bad := range map[string][]byte{
		"negative id":      payload(-1),
		"negative later":   payload(3, -2),
		"most negative id": payload(math.MinInt),
		"repeated id":      payload(5, 5),
		"descending ids":   payload(5, 9, 7),
		"short":            payload(1, 2, 3)[:4+8+8+7],
		"count too large":  payload(1, 2, 3)[:4+8],
	} {
		err := s.RestoreFrom(statecodec.NewReader(bad))
		if !errors.Is(err, statecodec.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzIDSet reads op bytes — add near the last id, add far away, reset,
// snapshot-and-restore, add a negative id — and drives the set and the map
// model with them. The seeds cross the inline/table boundary by count and
// by an id of 2³², and reset and refill a spilled set.
func FuzzIDSet(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3})
	f.Add([]byte{1, 200, 1, 7, 0, 63, 0, 1, 3, 0, 0, 5})
	f.Add([]byte{1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 2, 0, 0, 9})
	steps := func(n int, tail ...byte) []byte {
		var ops []byte
		for range n {
			ops = append(ops, 0, 7, 4, 7)
		}
		return append(ops, tail...)
	}
	f.Add(steps(idInline, 3, 0))                                       // idInline ids, snapshot and restore inline
	f.Add(steps(idInline+1, 3, 0))                                     // one more: the table, snapshot and restore
	f.Add(steps(3, 1, 32, 3, 0, 1, 32, 0, 1))                          // an id of 2³², then below it again
	f.Add(steps(idInline+1, 2, 0, 0, 1, 0, 1, 3, 0))                   // reset after a spill, refill inline
	f.Add(append(steps(idInline+1, 2, 8), append(steps(20), 3, 0)...)) // and past it again
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048] // a snapshot op costs the set's size: keep one input quick
		}
		var s IDSet
		m := idModel{}
		cur := 0
		for len(ops) >= 2 {
			op, arg := ops[0], int(ops[1])
			ops = ops[2:]
			switch op % 5 {
			case 0: // step forward from the last id, as a sweep does
				cur += arg
			case 1: // jump: arg picks which bit of the id flips
				cur ^= 1 << (uint(arg) % 63)
			case 2:
				if arg%8 == 0 {
					s.Reset()
					clear(m)
				}
				continue
			case 3:
				raw, _ := snapshotIDs(t, &s)
				s = IDSet{}
				if err := s.RestoreFrom(statecodec.NewReader(raw)); err != nil {
					t.Fatal(err)
				}
				continue
			case 4: // not a member: both sides ignore it
				s.Add(-1 - arg)
				if s.Len() != len(m) {
					t.Fatalf("Add(%d) changed Len to %d", -1-arg, s.Len())
				}
				continue
			}
			if cur < 0 {
				cur = -(cur + 1)
			}
			s.Add(cur)
			m[cur] = struct{}{}
		}
		checkAgainst(t, &s, m)
	})
}
