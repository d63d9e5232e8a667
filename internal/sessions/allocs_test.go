package sessions

import (
	"testing"
	"time"
)

// Session churn is the store's steady state on a wide mix: every new
// client arrives as an old one ends. The ended session's slot and index
// entry are reused in place, so evict-one-admit-one allocates nothing.
func TestChurnAllocGuard(t *testing.T) {
	s := payloadStore(t, func(*payload) {})
	const live = 1000
	next := uint32(0)
	at := func(n uint32) time.Time { return base.Add(time.Duration(n) * time.Second) }
	admit := func() {
		// One client a second and a 30-minute timeout: client n's arrival
		// ends client n−1801's session.
		s.Touch(IPOnlyKey(next), at(next))
		next++
	}
	for next < 1800+live {
		admit()
	}
	if s.Len() != 1801 {
		t.Fatalf("Len = %d before measuring, want the 1801 sessions of one timeout", s.Len())
	}
	evictions := s.Evictions()
	if allocs := testing.AllocsPerRun(2000, admit); allocs != 0 {
		t.Errorf("evict-one-admit-one allocates %.2f/op, want 0", allocs)
	}
	if got := s.Evictions() - evictions; got != 2001 || s.Len() != 1801 {
		t.Errorf("measured %d evictions and Len %d, want 2001 (one per admit) and 1801", got, s.Len())
	}
}
