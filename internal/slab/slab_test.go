package slab

import "testing"

type rec struct {
	id    int
	table []int
}

// The first chunk doubles under a growing population and every value
// survives the moves; past ChunkLen the slab grows a chunk at a time.
func TestAllocGrowsFromOneSlot(t *testing.T) {
	var s Slab[rec]
	wantCap := []int{1, 2, 4, 4, 8, 8, 8, 8, 16}
	for i := 1; i <= 3*ChunkLen; i++ {
		id, v := s.Alloc()
		if id != uint32(i) {
			t.Fatalf("alloc %d returned id %d", i, id)
		}
		if v.id != 0 || v.table != nil {
			t.Fatalf("slot %d not zero: %+v", id, *v)
		}
		v.id = i
		if i <= len(wantCap) && s.Cap() != wantCap[i-1] {
			t.Fatalf("after %d allocs Cap = %d, want %d", i, s.Cap(), wantCap[i-1])
		}
	}
	if s.Cap() != 3*ChunkLen {
		t.Errorf("Cap = %d after %d allocs", s.Cap(), 3*ChunkLen)
	}
	for i := 1; i <= 3*ChunkLen; i++ {
		if got := s.At(uint32(i)).id; got != i {
			t.Fatalf("slot %d holds %d", i, got)
		}
	}
}

// A released slot is zeroed at once — it must not pin what its client
// grew while it waits — and is the next one handed out.
func TestReleaseZeroesAndReuses(t *testing.T) {
	var s Slab[rec]
	for i := 0; i < 10; i++ {
		_, v := s.Alloc()
		v.id, v.table = i+1, make([]int, 100)
	}
	before := s.Cap()
	s.Release(4)
	if v := s.At(4); v.id != 0 || v.table != nil {
		t.Fatalf("released slot still holds %+v", *v)
	}
	s.Release(7)
	for _, want := range []uint32{7, 4} {
		id, v := s.Alloc()
		if id != want || v.id != 0 {
			t.Fatalf("Alloc = id %d (%+v), want zeroed slot %d", id, *v, want)
		}
	}
	if id, _ := s.Alloc(); id != 11 {
		t.Errorf("free list empty, Alloc = %d, want the next unused id 11", id)
	}
	if s.Cap() != before {
		t.Errorf("Cap went %d → %d across release and reuse", before, s.Cap())
	}
}

func TestSparse(t *testing.T) {
	var s Slab[rec]
	for i := 0; i < ChunkLen; i++ {
		s.Alloc()
	}
	if s.Sparse(0) {
		t.Error("a one-chunk slab is never worth rebuilding")
	}
	for i := 0; i < 3*ChunkLen; i++ {
		s.Alloc()
	}
	if s.Sparse(ChunkLen) {
		t.Error("a quarter-full slab reported sparse")
	}
	if !s.Sparse(ChunkLen - 1) {
		t.Error("a slab under a quarter full not reported sparse")
	}
}

// Reset(n) leaves room for n values with no growth of the first chunk
// under the caller, and no more than a chunk of slack.
func TestResetSizesForLive(t *testing.T) {
	for _, live := range []int{0, 1, 2, 3, 5, ChunkLen - 1, ChunkLen, ChunkLen + 1, 5 * ChunkLen} {
		var s Slab[rec]
		for i := 0; i < 1000; i++ {
			s.Alloc()
		}
		s.Reset(live)
		if live == 0 && s.Cap() != 0 {
			t.Errorf("Reset(0) kept %d slots", s.Cap())
		}
		var first *rec
		for i := 1; i <= live; i++ {
			id, v := s.Alloc()
			if id != uint32(i) || v.id != 0 {
				t.Fatalf("live %d: alloc %d = id %d %+v", live, i, id, *v)
			}
			if i == 1 {
				first = v
			}
		}
		if live > 0 && first != s.At(1) {
			t.Errorf("live %d: the first chunk moved while the slab filled", live)
		}
		if s.Cap() >= max(2*live, live+ChunkLen) && live > 0 {
			t.Errorf("live %d: Cap %d", live, s.Cap())
		}
	}
}

// Pop zeroes the last slot, keeps at most one spare chunk beyond the ones
// in use and lets the chunk table go once it is mostly empty: a slab popped down
// from a flood holds what its values need plus a chunk.
func TestPopShrinksAChunkAtATime(t *testing.T) {
	var s Slab[rec]
	const flood = 300 * ChunkLen
	for i := 1; i <= flood; i++ {
		_, v := s.Alloc()
		v.id, v.table = i, make([]int, 1)
	}
	for live := flood - 1; live >= 0; live-- {
		s.Pop()
		if live > 0 && s.At(uint32(live)).id != live {
			t.Fatalf("popping to %d disturbed slot %d", live, live)
		}
		if most := (live+ChunkLen-1)/ChunkLen*ChunkLen + ChunkLen; s.Cap() > most || s.Cap() < live {
			t.Fatalf("%d values in %d slots, want at most %d", live, s.Cap(), most)
		}
		if v := s.At(uint32(live + 1)); v.id != 0 || v.table != nil {
			t.Fatalf("popped slot %d still holds %+v", live+1, *v)
		}
	}
	if cap(s.chunks) > 4 {
		t.Errorf("an emptied slab keeps a table of %d chunks", cap(s.chunks))
	}
	if id, v := s.Alloc(); id != 1 || v.id != 0 {
		t.Errorf("Alloc after popping everything = id %d %+v, want a zero slot 1", id, *v)
	}
}
