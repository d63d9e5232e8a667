// Package sessions provides streaming sessionization: per-client state
// keyed by (IP, User-Agent) with idle-timeout eviction, the standard way
// web analytics reconstructs sessions from access logs. Every detector
// builds on Store to bound its memory while processing arbitrarily long
// logs; eviction order is maintained in an intrusive LRU list so the
// amortised cost per request is O(1).
//
// Stores are durable: with per-value Snapshot/Restore hooks configured,
// a store serialises its live session set through internal/statecodec,
// and key-partitioned shard sets merge into (and restore from) one
// canonical, partition-agnostic snapshot — see snapshot.go.
package sessions

import (
	"fmt"
	"time"

	"divscrape/internal/fnvhash"
	"divscrape/internal/statecodec"
)

// Key identifies a client stream within a log.
type Key struct {
	// IP is the numeric client address.
	IP uint32
	// UAHash is a 64-bit hash of the User-Agent string, distinguishing
	// distinct agents behind one NAT address.
	UAHash uint64
}

// KeyFor builds a Key from an address and User-Agent string. The hash is
// FNV-1a computed inline, so building a key performs no allocation.
func KeyFor(ip uint32, userAgent string) Key {
	return Key{IP: ip, UAHash: fnvhash.String64(userAgent)}
}

// IPOnlyKey builds a Key that aggregates all agents behind one address;
// used for per-IP state such as rate limits and UA-rotation tracking.
func IPOnlyKey(ip uint32) Key {
	return Key{IP: ip}
}

// Store tracks per-key state of type T with idle eviction. The zero value
// is unusable; construct with NewStore. Not safe for concurrent use.
type Store[T any] struct {
	idle      time.Duration
	newT      func(now time.Time) *T
	onEvict   func(Key, *T)
	reuse     func(*T)
	snapshotV func(*statecodec.Writer, *T)
	restoreV  func(*statecodec.Reader, *T) error
	m         map[Key]*node[T]
	head      *node[T] // least recently touched
	tail      *node[T] // most recently touched
	free      *node[T] // evicted nodes recycled into new sessions
	freeLen   int
	touches   uint64
	evicts    uint64
}

// maxFreeNodes bounds the recycled-node list so a burst of short sessions
// (or an address-rotating flood) cannot pin memory forever — with a
// Recycle hook the retained nodes carry live session state, so the bound
// is also the ceiling on state kept for reuse.
const maxFreeNodes = 4096

type node[T any] struct {
	key        Key
	value      *T
	lastSeen   time.Time
	prev, next *node[T]
}

// Config parameterises NewStore.
type Config[T any] struct {
	// IdleTimeout evicts sessions with no activity for this long. The
	// conventional web-analytics value is 30 minutes. Must be positive.
	IdleTimeout time.Duration
	// New constructs the state for a session first seen at now. Required.
	New func(now time.Time) *T
	// OnEvict, if set, observes sessions as they expire (used to fold
	// session summaries into population baselines).
	OnEvict func(Key, *T)
	// Recycle, if set, resets an evicted session value in place so it can
	// back a future session; the store then reuses values through its free
	// list instead of dropping them for the garbage collector, making
	// session churn (eviction + fresh client) allocation-free in steady
	// state. Recycle runs after OnEvict and must return the value to the
	// state New would have produced, minus anything New derives from its
	// timestamp argument. The detectors' records are plain values and
	// Recycle overwrites them whole, so a free-list record holds nothing
	// of the client it served: no map, no table, no User-Agent string.
	Recycle func(*T)
	// Snapshot, if set, serialises one session value into a snapshot; see
	// SnapshotInto. Restore must read back exactly what Snapshot wrote.
	Snapshot func(w *statecodec.Writer, v *T)
	// Restore, if set, fills a freshly constructed session value from a
	// snapshot; see RestoreFrom. It must return an error (never panic) on
	// corrupt input.
	Restore func(r *statecodec.Reader, v *T) error
	// SizeHint pre-sizes the session map for the expected number of
	// concurrently live sessions; zero selects 1024.
	SizeHint int
}

// NewStore validates cfg and returns an empty store.
func NewStore[T any](cfg Config[T]) (*Store[T], error) {
	if cfg.IdleTimeout <= 0 {
		return nil, fmt.Errorf("sessions: IdleTimeout must be positive, got %v", cfg.IdleTimeout)
	}
	if cfg.New == nil {
		return nil, fmt.Errorf("sessions: New constructor is required")
	}
	hint := cfg.SizeHint
	if hint <= 0 {
		hint = 1024
	}
	return &Store[T]{
		idle:      cfg.IdleTimeout,
		newT:      cfg.New,
		onEvict:   cfg.OnEvict,
		reuse:     cfg.Recycle,
		snapshotV: cfg.Snapshot,
		restoreV:  cfg.Restore,
		m:         make(map[Key]*node[T], hint),
	}, nil
}

// Touch returns the state for key as of now, creating it if absent or if
// the previous session expired. The second result reports whether a new
// session started. Touch also expires any sessions idle at now. A key that
// is still the most recently touched one — scraping traffic comes in runs
// of one client — is answered from the list's tail, without a map lookup.
func (s *Store[T]) Touch(key Key, now time.Time) (*T, bool) {
	s.expire(now)
	s.touches++
	n := s.tail
	if n == nil || n.key != key {
		n = s.m[key]
	}
	if n != nil {
		n.lastSeen = now
		s.moveToTail(n)
		return n.value, false
	}
	n = s.newNode()
	n.key, n.lastSeen = key, now
	// A recycled node may carry a Recycle-reset value; reuse it instead of
	// constructing a fresh one.
	if n.value == nil {
		n.value = s.newT(now)
	}
	s.m[key] = n
	s.pushTail(n)
	return n.value, true
}

// newNode pops a recycled node or allocates one.
func (s *Store[T]) newNode() *node[T] {
	if s.free == nil {
		return new(node[T])
	}
	n := s.free
	s.free = n.next
	s.freeLen--
	n.next = nil
	return n
}

// recycle clears a detached node and pushes it on the free list. With a
// Recycle hook the session value rides along, reset for reuse; without one
// the value is dropped for the collector.
func (s *Store[T]) recycle(n *node[T]) {
	n.key, n.lastSeen, n.prev = Key{}, time.Time{}, nil
	if s.freeLen >= maxFreeNodes {
		n.value = nil
		return
	}
	if s.reuse != nil && n.value != nil {
		s.reuse(n.value)
	} else {
		n.value = nil
	}
	n.next = s.free
	s.free = n
	s.freeLen++
}

// Peek returns the state for key without refreshing its idle timer, or
// nil when absent.
func (s *Store[T]) Peek(key Key) *T {
	if n, ok := s.m[key]; ok {
		return n.value
	}
	return nil
}

// Len returns the number of live sessions.
func (s *Store[T]) Len() int { return len(s.m) }

// Evictions returns the number of sessions expired so far.
func (s *Store[T]) Evictions() uint64 { return s.evicts }

// FlushAll evicts every live session (end of log), invoking OnEvict.
func (s *Store[T]) FlushAll() {
	for s.head != nil {
		s.evictHead()
	}
}

// EvictBefore evicts every session last touched before cutoff, invoking
// OnEvict, and returns the number evicted. It is the proactive form of the
// lazy per-Touch expiry: a sweeper calls it on a wall-clock cadence so
// stores whose keys have gone quiet shed their state without waiting for
// the next Touch. Evicting with cutoff ≤ now − IdleTimeout removes only
// sessions the next Touch at now would have expired anyway, so such
// sweeps never change observable session state — the eviction-equivalence
// property the pipeline's metamorphic test pins down.
func (s *Store[T]) EvictBefore(cutoff time.Time) int {
	n := 0
	for s.head != nil && s.head.lastSeen.Before(cutoff) {
		s.evictHead()
		n++
	}
	return n
}

// RangeNewest walks live sessions from most to least recently touched
// and stops when fn returns false. The LRU list keeps entries in
// last-touch order, so a caller collecting "sessions active since T" —
// the cluster plane's session digests — visits exactly the active ones
// and stops at the first stale entry instead of scanning the store.
func (s *Store[T]) RangeNewest(fn func(key Key, lastSeen time.Time) bool) {
	for n := s.tail; n != nil; n = n.prev {
		if !fn(n.key, n.lastSeen) {
			return
		}
	}
}

// expire evicts sessions idle longer than the timeout as of now. The LRU
// list keeps entries in last-touch order, so expiry pops from the head.
func (s *Store[T]) expire(now time.Time) {
	deadline := now.Add(-s.idle)
	for s.head != nil && s.head.lastSeen.Before(deadline) {
		s.evictHead()
	}
}

func (s *Store[T]) evictHead() {
	n := s.head
	s.unlink(n)
	delete(s.m, n.key)
	s.evicts++
	if s.onEvict != nil {
		s.onEvict(n.key, n.value)
	}
	s.recycle(n)
}

// Reset drops every live session in place, returning the store to its
// just-constructed condition without rebuilding the map (buckets stay
// allocated, so the next log replay does not re-grow it) and without
// invoking OnEvict — a reset is an operator action, not session expiry.
func (s *Store[T]) Reset() {
	for n := s.head; n != nil; {
		next := n.next
		s.recycle(n)
		n = next
	}
	clear(s.m)
	s.head, s.tail = nil, nil
	s.touches, s.evicts = 0, 0
}

func (s *Store[T]) pushTail(n *node[T]) {
	n.prev = s.tail
	n.next = nil
	if s.tail != nil {
		s.tail.next = n
	}
	s.tail = n
	if s.head == nil {
		s.head = n
	}
}

func (s *Store[T]) unlink(n *node[T]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (s *Store[T]) moveToTail(n *node[T]) {
	if s.tail == n {
		return
	}
	s.unlink(n)
	s.pushTail(n)
}
