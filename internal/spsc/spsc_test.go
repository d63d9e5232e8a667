package spsc

import (
	"runtime"
	"sync"
	"testing"
)

func TestCapacityRounding(t *testing.T) {
	cases := []struct{ ask, want int }{
		{1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16}, {100, 128}, {256, 256},
	}
	for _, c := range cases {
		if got := New[int](c.ask).Cap(); got != c.want {
			t.Errorf("New(%d).Cap() = %d, want %d", c.ask, got, c.want)
		}
	}
}

func TestFIFOAndWraparound(t *testing.T) {
	r := New[int](4)
	never := make(chan struct{})
	// Push/pop several multiples of the capacity so head and tail wrap
	// the mask repeatedly.
	next := 0
	for round := 0; round < 10; round++ {
		for i := 0; i < r.Cap(); i++ {
			if !r.TryPush(round*100 + i) {
				t.Fatalf("round %d: TryPush(%d) failed on non-full ring", round, i)
			}
		}
		if r.TryPush(-1) {
			t.Fatalf("round %d: TryPush succeeded on full ring", round)
		}
		if got := r.Len(); got != r.Cap() {
			t.Fatalf("round %d: Len = %d, want %d", round, got, r.Cap())
		}
		for i := 0; i < r.Cap(); i++ {
			v, ok := r.Pop(never)
			if !ok || v != round*100+i {
				t.Fatalf("round %d: Pop = (%d, %v), want (%d, true)", round, v, ok, round*100+i)
			}
		}
		if _, ok := r.TryPop(); ok {
			t.Fatalf("round %d: TryPop succeeded on empty ring", round)
		}
		next++
	}
}

func TestPopDrainsAfterClose(t *testing.T) {
	r := New[int](8)
	for i := 0; i < 5; i++ {
		if !r.TryPush(i) {
			t.Fatalf("TryPush(%d) failed", i)
		}
	}
	r.Close()
	if r.TryPush(99) {
		t.Fatal("TryPush succeeded after Close")
	}
	never := make(chan struct{})
	for i := 0; i < 5; i++ {
		v, ok := r.Pop(never)
		if !ok || v != i {
			t.Fatalf("Pop = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	if _, ok := r.Pop(never); ok {
		t.Fatal("Pop returned ok on a closed, drained ring")
	}
}

func TestDoneUnblocksBothSides(t *testing.T) {
	r := New[int](2)
	done := make(chan struct{})

	// Blocked consumer on an empty ring.
	popped := make(chan bool)
	go func() {
		_, ok := r.Pop(done)
		popped <- ok
	}()
	close(done)
	if ok := <-popped; ok {
		t.Fatal("Pop returned ok=true after done closed")
	}

	// Blocked producer on a full ring.
	r2 := New[int](2)
	for r2.TryPush(1) {
	}
	done2 := make(chan struct{})
	pushed := make(chan bool)
	go func() {
		pushed <- r2.Push(done2, 42)
	}()
	close(done2)
	if ok := <-pushed; ok {
		t.Fatal("Push returned ok=true after done closed")
	}
}

func TestCloseWakesBlockedConsumer(t *testing.T) {
	r := New[int](2)
	never := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := r.Pop(never); ok {
			t.Error("Pop returned ok on closed empty ring")
		}
	}()
	r.Close()
	<-done
}

func TestCloseWakesBlockedProducer(t *testing.T) {
	r := New[int](2)
	for r.TryPush(1) {
	}
	never := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if r.Push(never, 42) {
			t.Error("Push returned true on closed full ring")
		}
	}()
	r.Close()
	<-done
}

// TestConcurrentTransfer streams a large counted sequence through a small
// ring and asserts every value arrives exactly once, in order. Run under
// -race this exercises the publication edges (slot write before tail
// store, slot read after tail load) and the park/wake protocol from both
// sides; the tiny capacity forces constant full/empty transitions.
func TestConcurrentTransfer(t *testing.T) {
	const n = 200_000
	r := New[int](8)
	never := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if !r.Push(never, i) {
				t.Errorf("Push(%d) failed", i)
				return
			}
		}
		r.Close()
	}()
	for i := 0; i < n; i++ {
		v, ok := r.Pop(never)
		if !ok {
			t.Fatalf("Pop %d: stream ended early", i)
		}
		if v != i {
			t.Fatalf("Pop %d: got %d — order violated", i, v)
		}
	}
	if _, ok := r.Pop(never); ok {
		t.Fatal("extra item after final Pop")
	}
	wg.Wait()
}

// TestPointerSlotsCleared checks the consumer zeroes slots so the ring
// does not pin popped pointers against the GC.
func TestPointerSlotsCleared(t *testing.T) {
	r := New[*int](4)
	x := new(int)
	r.TryPush(x)
	r.TryPop()
	for _, p := range r.buf {
		if p != nil {
			t.Fatal("popped slot still holds its pointer")
		}
	}
}

func TestSteadyStateTransferAllocFree(t *testing.T) {
	r := New[int](16)
	allocs := testing.AllocsPerRun(1000, func() {
		if !r.TryPush(7) {
			t.Fatal("push failed")
		}
		if _, ok := r.TryPop(); !ok {
			t.Fatal("pop failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("TryPush+TryPop allocated %.1f/op, want 0", allocs)
	}
}

// TestLenApproximation pins Len between operations from the owning
// goroutines (exact when quiescent).
func TestLenApproximation(t *testing.T) {
	r := New[int](8)
	for i := 0; i < 5; i++ {
		r.TryPush(i)
	}
	if got := r.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	r.TryPop()
	r.TryPop()
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	runtime.KeepAlive(r)
}
