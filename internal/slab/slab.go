// Package slab keeps per-client records out of the small-object heap: a
// Slab hands out slots for values of one type by integer id, from chunks
// of ChunkLen values, so ten thousand tracked clients are a couple of
// hundred allocations instead of ten thousand and a record can be linked
// to by a uint32. The first chunk starts at one slot and doubles up to
// ChunkLen, so an owner with a handful of clients holds a handful of
// slots. A slot given back is zeroed: it pins nothing its client grew.
//
// An owner gives slots back either by Release, which Alloc reuses before
// the slab grows, rebuilding the slab when Sparse says it is mostly free
// slots; or by Pop, moving its last value into each hole so that ids stay
// 1..live and chunks go as the slab shrinks.
//
// A *T from At or Alloc is valid until the next Alloc, Pop or Reset:
// growing the first chunk moves it.
package slab

import "math/bits"

// ChunkLen is the length of every chunk but a growing first one. A store
// of a thousand clients pays at most one chunk of slack for it, and held
// bytes per request on the paper mix are why it is not larger.
const (
	ChunkLen   = 1 << chunkShift
	chunkShift = 6
)

// Slab is a chunked arena of T addressed by 1-based ids; id 0 is free for
// the owner to mean "none". The zero value is an empty slab.
type Slab[T any] struct {
	chunks [][]T
	used   uint32   // ids 1..used have been handed out
	free   []uint32 // released ids, reused last-in first-out
}

// At returns the slot with the given id, which Alloc must have returned.
func (s *Slab[T]) At(id uint32) *T {
	id--
	return &s.chunks[id>>chunkShift][id&(ChunkLen-1)]
}

// Alloc returns a zero slot and its id.
func (s *Slab[T]) Alloc() (uint32, *T) {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return id, s.At(id)
	}
	c, off := int(s.used>>chunkShift), int(s.used&(ChunkLen-1))
	switch {
	case c == len(s.chunks):
		size := ChunkLen
		if c == 0 {
			size = 1
		}
		s.chunks = append(s.chunks, make([]T, size))
	case off == len(s.chunks[c]):
		// Only the first chunk is ever short.
		grown := make([]T, 2*off)
		copy(grown, s.chunks[c])
		s.chunks[c] = grown
	}
	s.used++
	return s.used, &s.chunks[c][off]
}

// Release zeroes the slot and makes its id available to Alloc.
func (s *Slab[T]) Release(id uint32) {
	var zero T
	*s.At(id) = zero
	s.free = append(s.free, id)
}

// Pop zeroes the last slot handed out and takes it back; an owner that
// pops does not Release. Chunks beyond those in use and one spare are
// dropped, and the chunk table is reallocated once under a quarter used.
func (s *Slab[T]) Pop() {
	*s.At(s.used) = *new(T)
	s.used--
	if keep := int(s.used+ChunkLen-1)>>chunkShift + 1; keep < len(s.chunks) {
		clear(s.chunks[keep:])
		s.chunks = s.chunks[:keep]
		if 4*keep < cap(s.chunks) {
			s.chunks = append([][]T(nil), s.chunks...)
		}
	}
}

// Cap returns how many slots the slab holds memory for.
func (s *Slab[T]) Cap() int {
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	return n
}

// Sparse reports whether a slab holding live values is worth rebuilding:
// more than one chunk long and under a quarter full.
func (s *Slab[T]) Sparse(live int) bool {
	return s.used > ChunkLen && live*4 < int(s.used)
}

// Reset empties the slab and drops its chunks. The next live Allocs are
// then served from full-size chunks, or from a first chunk sized for
// them, without the first chunk growing under the caller.
func (s *Slab[T]) Reset(live int) {
	*s = Slab[T]{}
	if live > 0 {
		first := ChunkLen
		if live < ChunkLen {
			first = 1 << bits.Len(uint(live-1))
		}
		s.chunks = [][]T{make([]T, first)}
	}
}
