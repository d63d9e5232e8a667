package stats

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// IDSet is an exact set of non-negative ints, built for the per-session
// "distinct products seen" feature. It has two forms. A set of at most
// idInline distinct ids, all below 2³², keeps them in the struct as uint32
// values in the order they came. Its (idInline+1)-th distinct id, or its
// first id of 2³² or more, moves it to an open-addressed table of 64-id
// bitmap blocks that doubles at three-quarters load: catalogue ids are
// dense and scrapers walk them in runs, so a run of 64 consecutive ids
// costs one 16-byte block, and an isolated id one block plus table slack,
// never an insertion shift. A table costs at most 43 bytes per id it
// holds, the one a large id forces early included. The move is the set's
// one allocation until the table doubles.
//
// So a session that views at most idInline distinct products never
// allocates, and every session pays the struct's 88 bytes, not a table's.
// That is nearly every human one: on the wide churning mix (12k clients,
// 2 h eviction) 23 594 sessions record a product and 18 of them reach 16
// distinct ids, because a human's ids cluster by category; on the paper
// mix 23 do.
//
// The zero value is an empty set. Copying an IDSet by value is safe only
// while its ids sit inline; past that the copies share one table.
type IDSet struct {
	table []idBlock // nil while the ids sit inline; length a power of two
	// ids holds the first n ids while table is nil. Once there is a table
	// they are dead, and their first six words hold its three int counters
	// (wordHeld …): a table costs its blocks and nothing beside them.
	ids [idInline]uint32
	n   uint32 // ids held inline
}

// idInline is how many ids a set holds before it needs a table; 15 keeps
// an IDSet at 88 bytes.
const idInline = 15

// idFirstTable is the length of the table a set that outgrows its inline
// ids spills into. Such a set has usually begun a sweep: on the paper mix
// 17 of the 23 that spill go past 12 blocks, where a 16-slot table
// doubles, so this length saves each of them an allocation and costs the
// others 256 bytes. It holds 16 or more ids, so at most 32 bytes each.
const idFirstTable = 32

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
	if s.table == nil {
		if uint64(id) <= math.MaxUint32 {
			v := uint32(id)
			for _, have := range s.ids[:s.n] {
				if have == v {
					return
				}
			}
			if s.n < idInline {
				s.ids[s.n] = v
				s.n++
				return
			}
		}
		s.spill()
	}
	s.insert(uint64(id))
}

// Len returns the number of distinct ids added.
func (s *IDSet) Len() int {
	if s.table == nil {
		return int(s.n)
	}
	return s.word(wordHeld)
}

// Reset empties the set and releases its table, so a recycled session
// record holds nothing a past sweep grew.
func (s *IDSet) Reset() { *s = IDSet{} }

// The table's counters are ints kept in the dead inline words, two words
// each, and read and written only while there is a table.
const (
	wordHeld = iota // ids held
	wordUsed        // blocks held
	wordLast        // table slot of the block hit last: the next id is usually beside it
)

func (s *IDSet) word(i int) int   { return int(uint64(s.ids[2*i]) | uint64(s.ids[2*i+1])<<32) }
func (s *IDSet) setWord(i, v int) { s.ids[2*i], s.ids[2*i+1] = uint32(v), uint32(uint64(v)>>32) }

// spill moves the inline ids into a table, before the id that caused the
// move is inserted. A set that outgrows its inline ids gets idFirstTable
// slots: its blocks and the new id's are at most idInline+1, under
// three-quarters of them. A set that an id of 2³² or more moves early
// gets the fewest slots that hold its blocks and that id's under
// three-quarters load, so a client that sends one large id pays for one
// block, not for a sweep's table. Either way the new id never doubles it.
func (s *IDSet) spill() {
	inline, n := s.ids, s.n // a copy: the words become the table's counters
	size := idFirstTable
	if n < idInline {
		blocks := 1 // the new id's: it is 2³² or more, so no inline id shares its block
	count:
		for i, v := range inline[:n] {
			for _, u := range inline[:i] {
				if u>>6 == v>>6 {
					continue count
				}
			}
			blocks++
		}
		for size = 2; size*3 < blocks*4; size *= 2 {
		}
	}
	s.table, s.ids, s.n = make([]idBlock, size), [idInline]uint32{}, 0
	for _, v := range inline[:n] {
		s.insert(uint64(v))
	}
}

// insert adds id to the table.
func (s *IDSet) insert(id uint64) {
	key, bit := id>>6, uint64(1)<<(id&63)
	b := s.find(key)
	if b.bits == 0 {
		if (s.word(wordUsed)+1)*4 > len(s.table)*3 {
			s.grow()
			b = s.find(key)
		}
		b.key = key
		s.setWord(wordUsed, s.word(wordUsed)+1)
	}
	if b.bits&bit == 0 {
		b.bits |= bit
		s.setWord(wordHeld, s.word(wordHeld)+1)
	}
}

// find returns key's block in the table, or the free slot key would take.
// Blocks are never removed, so the first free slot ends the search.
func (s *IDSet) find(key uint64) *idBlock {
	t := s.table
	if b := &t[s.word(wordLast)]; b.key == key && b.bits != 0 {
		return b
	}
	mask := len(t) - 1
	i := int(((key ^ idSeed) * idHashMul) >> uint(bits.LeadingZeros64(uint64(mask))))
	for {
		if b := &t[i]; b.bits == 0 || b.key == key {
			s.setWord(wordLast, i)
			return b
		}
		i = (i + 1) & mask
	}
}

// grow moves every block into a table twice as long.
func (s *IDSet) grow() {
	old := s.table
	s.table = make([]idBlock, 2*len(old))
	s.setWord(wordLast, 0)
	for _, b := range old {
		if b.bits != 0 {
			*s.find(b.key) = b
		}
	}
}
