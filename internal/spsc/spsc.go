// Package spsc provides a bounded single-producer/single-consumer ring
// buffer — the hand-off primitive behind the pipeline's relaxed-ordering
// sharded mode. Exactly one goroutine may push and exactly one may pop;
// under that contract every operation is wait-free in the common case
// (one slot write plus one atomic store), and the blocking paths park on
// a channel-based wake protocol instead of spinning or sleeping, so the
// ring behaves deterministically under the race detector and on a single
// core, where a spinning producer would starve the consumer it is
// waiting for.
//
// The implementation is the classic cached-index SPSC queue: head and
// tail are monotonically increasing uint64s masked onto a power-of-two
// slot array, the producer keeps a private copy of the last head it
// observed (so a push touches the consumer's cache line only when the
// ring looks full), and the consumer mirrors that with a cached tail.
// Go's atomic loads and stores provide the publication edges: a slot is
// written strictly before the tail store that makes it visible, and read
// strictly after the tail load that observed it.
package spsc

import (
	"math/bits"
	"sync/atomic"
)

// pad keeps the producer's and consumer's mutable state on distinct
// cache lines; false sharing between head and tail otherwise doubles the
// coherence traffic of every hand-off.
type pad [64]byte

// Ring is a bounded SPSC queue of T. The zero value is not usable;
// construct with New. Methods are split by role: Push/TryPush/Close
// belong to the producer goroutine, Pop/TryPop to the consumer. Len and
// Cap are safe from any goroutine (Len is approximate under concurrency,
// which is all a gauge needs).
type Ring[T any] struct {
	buf  []T
	mask uint64

	_    pad
	tail atomic.Uint64 // next slot the producer writes
	// cachedHead is the producer's last observed head; producer-private.
	cachedHead uint64

	_    pad
	head atomic.Uint64 // next slot the consumer reads
	// cachedTail is the consumer's last observed tail; consumer-private.
	cachedTail uint64

	_      pad
	closed atomic.Bool

	// Park/wake protocol: a side waiting for space (producer) or items
	// (consumer) raises its flag, re-checks the condition, then blocks on
	// its channel. The peer checks the flag after every state change and
	// issues a non-blocking send when it is up, so the steady-state cost
	// when nobody waits is one atomic load per operation.
	prodWaiting atomic.Bool
	consWaiting atomic.Bool
	prodWake    chan struct{}
	consWake    chan struct{}
}

// New builds a ring with at least the requested capacity, rounded up to
// the next power of two (minimum 2). capacity must be positive.
func New[T any](capacity int) *Ring[T] {
	if capacity < 2 {
		capacity = 2
	}
	n := 1 << bits.Len64(uint64(capacity-1))
	return &Ring[T]{
		buf:      make([]T, n),
		mask:     uint64(n - 1),
		prodWake: make(chan struct{}, 1),
		consWake: make(chan struct{}, 1),
	}
}

// Cap returns the ring's slot count.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the approximate number of queued items; exact when the
// peer is quiescent. Intended for occupancy gauges.
func (r *Ring[T]) Len() int {
	t := r.tail.Load()
	h := r.head.Load()
	if t < h { // torn read across the two loads; clamp
		return 0
	}
	return int(t - h)
}

// TryPush appends v if a slot is free, returning false on a full or
// closed ring. Producer goroutine only.
func (r *Ring[T]) TryPush(v T) bool {
	if r.closed.Load() {
		return false
	}
	t := r.tail.Load()
	if t-r.cachedHead >= uint64(len(r.buf)) {
		r.cachedHead = r.head.Load()
		if t-r.cachedHead >= uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	r.wakeConsumer()
	return true
}

// Push appends v, blocking while the ring is full. It returns false —
// without having queued v — when done is closed first or Close was
// called. Producer goroutine only.
func (r *Ring[T]) Push(done <-chan struct{}, v T) bool {
	for {
		if r.TryPush(v) {
			return true
		}
		// Declare intent to sleep, then re-check: the consumer reads the
		// flag after moving head, so a pop racing this window is
		// guaranteed to either make space visible to the re-check or see
		// the flag and send the wake.
		r.prodWaiting.Store(true)
		if r.TryPush(v) {
			r.prodWaiting.Store(false)
			return true
		}
		if r.closed.Load() {
			r.prodWaiting.Store(false)
			return false
		}
		select {
		case <-r.prodWake:
		case <-done:
			r.prodWaiting.Store(false)
			return false
		}
		r.prodWaiting.Store(false)
	}
}

// TryPop removes and returns the oldest item; ok is false on an empty
// ring (closed or not). Consumer goroutine only.
func (r *Ring[T]) TryPop() (v T, ok bool) {
	h := r.head.Load()
	if h == r.cachedTail {
		r.cachedTail = r.tail.Load()
		if h == r.cachedTail {
			return v, false
		}
	}
	var zero T
	v = r.buf[h&r.mask]
	r.buf[h&r.mask] = zero // drop the ring's reference; T may hold pointers
	r.head.Store(h + 1)
	r.wakeProducer()
	return v, true
}

// Pop removes and returns the oldest item, blocking while the ring is
// empty. It returns ok=false when the ring is closed and fully drained,
// or when done is closed while waiting. Consumer goroutine only.
func (r *Ring[T]) Pop(done <-chan struct{}) (v T, ok bool) {
	for {
		if v, ok = r.TryPop(); ok {
			return v, true
		}
		r.consWaiting.Store(true)
		if v, ok = r.TryPop(); ok {
			r.consWaiting.Store(false)
			return v, true
		}
		// Closed is checked only after a failed pop so every item pushed
		// before Close drains before the consumer sees end-of-stream.
		if r.closed.Load() {
			r.consWaiting.Store(false)
			// One final pop covers a push that slid in between the check
			// above and a concurrent Close.
			return r.TryPop()
		}
		select {
		case <-r.consWake:
		case <-done:
			r.consWaiting.Store(false)
			return v, false
		}
		r.consWaiting.Store(false)
	}
}

// Close marks the stream complete: subsequent pushes fail, and Pop
// returns ok=false once the queued items drain. Close is idempotent and
// wakes both sides.
func (r *Ring[T]) Close() {
	r.closed.Store(true)
	r.wakeConsumer()
	r.wakeProducer()
}

// Reopen clears the closed flag and any stale wake tokens so a drained
// ring can carry a new stream. The caller must guarantee both sides are
// quiescent (no concurrent Push/Pop) — the same contract as reusing a
// pipeline between runs.
func (r *Ring[T]) Reopen() {
	r.closed.Store(false)
	r.prodWaiting.Store(false)
	r.consWaiting.Store(false)
	select {
	case <-r.prodWake:
	default:
	}
	select {
	case <-r.consWake:
	default:
	}
}

func (r *Ring[T]) wakeConsumer() {
	if r.consWaiting.Load() {
		select {
		case r.consWake <- struct{}{}:
		default:
		}
	}
}

func (r *Ring[T]) wakeProducer() {
	if r.prodWaiting.Load() {
		select {
		case r.prodWake <- struct{}{}:
		default:
		}
	}
}
