package stats

import (
	"math/bits"
	"math/rand/v2"
)

// IDSet is an exact set of non-negative ints, built for the per-session
// "distinct products seen" feature: catalogue ids are dense and scrapers
// walk them in runs, so the set stores 64-id bitmap blocks rather than
// ids. The first idInline blocks live in the struct itself — a human
// session never allocates — and a set that outgrows them moves to an
// open-addressed table that doubles at three-quarters load. A run of 64
// consecutive ids costs one 16-byte block; an isolated id costs one block
// plus table slack (at most 43 bytes), never an insertion shift.
//
// The zero value is an empty set. Copying an IDSet by value is safe only
// while it fits its inline blocks; past that the copies share one table.
type IDSet struct {
	n      int // ids held
	used   int // blocks held
	last   int // table slot of the block hit last: the next id is usually beside it
	inline [idInline]idBlock
	table  []idBlock // nil until the inline blocks overflow; length a power of two
}

// idInline must be a power of two: the first table is twice as long.
const idInline = 8

// idBlock holds ids key<<6 … key<<6|63. A block in use has at least one
// bit set, so zero bits mark a free slot and no key value is reserved.
type idBlock struct {
	key, bits uint64
}

// idHashMul is 2⁶⁴ over the golden ratio: Fibonacci hashing takes the top
// bits of key·idHashMul, which spreads consecutive keys evenly.
const idHashMul = 0x9E3779B97F4A7C15

// idSeed perturbs the table's hash once per process, as the runtime seeds
// the map this type replaced: ids come from request paths, and a fixed
// hash would let a client pick ids that all probe the same run of slots.
var idSeed = rand.Uint64()

// Add inserts id. Negative ids are not members and are ignored.
func (s *IDSet) Add(id int) {
	if id < 0 {
		return
	}
	key, bit := uint64(id)>>6, uint64(1)<<(uint(id)&63)
	b := s.find(key)
	if b.bits == 0 {
		if s.table != nil && (s.used+1)*4 > len(s.table)*3 {
			s.grow()
			b = s.find(key)
		}
		b.key = key
		s.used++
	}
	if b.bits&bit == 0 {
		b.bits |= bit
		s.n++
	}
}

// Len returns the number of distinct ids added.
func (s *IDSet) Len() int { return s.n }

// Reset empties the set and releases its table, so a recycled session
// record holds nothing a past sweep grew.
func (s *IDSet) Reset() { *s = IDSet{} }

// find returns key's block, or the free slot key would take. Blocks are
// never removed, so the first free slot ends the search.
func (s *IDSet) find(key uint64) *idBlock {
	if s.table == nil {
		for i := range s.inline {
			if b := &s.inline[i]; b.bits == 0 || b.key == key {
				return b
			}
		}
		s.grow()
	}
	t := s.table
	if b := &t[s.last]; b.key == key && b.bits != 0 {
		return b
	}
	mask := len(t) - 1
	i := int(((key ^ idSeed) * idHashMul) >> uint(bits.LeadingZeros64(uint64(mask))))
	for {
		if b := &t[i]; b.bits == 0 || b.key == key {
			s.last = i
			return b
		}
		i = (i + 1) & mask
	}
}

// slots returns the storage in use: the table once there is one, the inline
// blocks before. The slice is for the caller's immediate use, never stored.
func (s *IDSet) slots() []idBlock {
	if s.table != nil {
		return s.table
	}
	return s.inline[:]
}

// grow moves every block into a table twice as long as what held them.
func (s *IDSet) grow() {
	old := s.slots()
	s.table, s.last = make([]idBlock, 2*len(old)), 0
	for _, b := range old {
		if b.bits != 0 {
			*s.find(b.key) = b
		}
	}
}
