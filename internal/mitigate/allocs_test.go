package mitigate

import (
	"fmt"
	"testing"
	"time"
)

// A ladder under address churn — each new client arrives as the sweeper
// drops an idle one — reuses the dropped client's slab slot and map entry:
// evict-one-admit-one allocates nothing.
func TestChurnAllocGuard(t *testing.T) {
	e, err := New(Graduated())
	if err != nil {
		t.Fatal(err)
	}
	const live, runs = 1000, 2000
	keys := make([]string, live+runs+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("10.%d.%d.%d", i>>16, i>>8&255, i&255)
	}
	base := time.Date(2018, 3, 11, 12, 0, 0, 0, time.UTC)
	at := func(n int) time.Time { return base.Add(time.Duration(n) * time.Second) }
	next := 0
	admit := func() {
		e.Apply(keys[next], at(next), Assessment{Score: 0.1})
		next++
	}
	for next < live {
		admit()
	}
	churn := func() {
		// Client next−live is the oldest: a sweep cut just after its one
		// request drops it and nothing else.
		if n := e.EvictBefore(at(next - live + 1)); n != 1 {
			t.Fatalf("sweep dropped %d clients, want 1", n)
		}
		admit()
	}
	churn() // the first release grows the slab's free list
	if allocs := testing.AllocsPerRun(runs-1, churn); allocs != 0 {
		t.Errorf("evict-one-admit-one allocates %.2f/op, want 0", allocs)
	}
	if e.Len() != live {
		t.Errorf("Len = %d after churn, want %d", e.Len(), live)
	}
}
