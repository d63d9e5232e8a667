package stats

// CountSet counts occurrences of string categories; the commercial-style
// detector keeps one per client address to notice User-Agent rotation.
// Nearly every address sends one agent, so the first category is held in
// the struct itself and a map is built only for a second: the common Add is
// a string compare — which stops at the pointer when the strings are
// interned — not a hash of a hundred-byte User-Agent. The zero value is an
// empty counter.
type CountSet struct {
	first      string // the first category seen; in use when firstCount > 0
	firstCount uint64
	more       map[string]uint64 // every other category
	total      uint64
}

// Add counts one occurrence of category c.
func (s *CountSet) Add(c string) { s.add(c, 1) }

func (s *CountSet) add(c string, n uint64) {
	s.total += n
	switch {
	case s.firstCount == 0:
		s.first, s.firstCount = c, n
	case c == s.first:
		s.firstCount += n
	default:
		if s.more == nil {
			s.more = make(map[string]uint64)
		}
		s.more[c] += n
	}
}

// Total returns the number of observations.
func (s *CountSet) Total() uint64 { return s.total }

// Distinct returns the number of distinct categories seen.
func (s *CountSet) Distinct() int {
	if s.firstCount == 0 {
		return 0
	}
	return 1 + len(s.more)
}

// Reset empties the counter and lets go of its strings and map, so a
// recycled client record pins no User-Agent of the client before it.
func (s *CountSet) Reset() { *s = CountSet{} }
