// Package sessions provides streaming sessionization: per-client state
// keyed by (IP, User-Agent) with idle-timeout eviction, the standard way
// web analytics reconstructs sessions from access logs. Every detector
// builds on Store to bound its memory while processing arbitrarily long
// logs; eviction order is maintained in an intrusive LRU list so the
// amortised cost per request is O(1).
//
// # Layout
//
// Per-client state is what an address-rotating client inflates cheapest,
// so a tracked client is not a heap object. Sessions live in a slab
// (internal/slab): chunks of nodes, each node {key, last touch, LRU links,
// value} with the record T inline, the links as node ids and the last
// touch as integer nanoseconds (internal/instant). An evicted node's slot
// is zeroed and reused, so session churn allocates nothing.
//
// Nodes are found through the store's own open-addressed index: a
// power-of-two []uint64 of hashTag<<32|nodeID, linear probing, kept at
// most three-quarters full, entries deleted by backward shift so there are
// no tombstones to scan. A slot's home is derived from its tag, so growth
// and deletion never visit a node. The hash is seeded per store: keys are
// a client's choice of address and User-Agent, the Go map this replaced
// was seeded by the runtime, and a fixed mix would let one client build a
// probe chain as long as it cared to send requests.
//
// # Compaction
//
// A Go map never gives its buckets back, and neither would a slab that
// only recycled: after a flood is evicted the store would hold its peak
// forever. Whenever expiry, EvictBefore or FlushAll leaves the slab more
// than one chunk long and under a quarter full (slab.Sparse), the store
// rebuilds it: live nodes are copied in LRU order into fresh chunks, the
// index is re-sized to the live set and the old chunks are dropped.
//
// # Pointer validity
//
// A *T returned by Touch or Peek points into the slab and is valid only
// until the next call on the store: the next Touch may grow the first
// chunk or compact. Every caller uses the record and lets go.
//
// Stores are durable: with per-value Snapshot/Restore hooks configured,
// a store serialises its live session set through internal/statecodec,
// and key-partitioned shard sets merge into (and restore from) one
// canonical, partition-agnostic snapshot — see snapshot.go.
package sessions

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"time"

	"divscrape/internal/fnvhash"
	"divscrape/internal/instant"
	"divscrape/internal/slab"
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

// minIndex is the index's shortest length.
const minIndex = 8

// node is one slab slot. Slab ids are 1-based: 0 is "none" in links and
// in the index.
type node[T any] struct {
	key        Key
	lastSeen   int64
	prev, next uint32
	value      T
}

// Store tracks per-key state of type T with idle eviction. The zero value
// is unusable; construct with NewStore. Not safe for concurrent use.
type Store[T any] struct {
	idle      time.Duration
	init      func(*T, time.Time)
	onEvict   func(Key, *T)
	snapshotV func(*statecodec.Writer, *T)
	restoreV  func(*statecodec.Reader, *T) error

	nodes  slab.Slab[node[T]]
	live   int
	head   uint32 // least recently touched
	tail   uint32 // most recently touched
	index  []uint64
	seed   [2]uint64
	evicts uint64
}

// Config parameterises NewStore.
type Config[T any] struct {
	// IdleTimeout evicts sessions with no activity for this long. The
	// conventional web-analytics value is 30 minutes. Must be positive.
	IdleTimeout time.Duration
	// Init makes a zero T the state of a session first seen at now, in
	// place: the record lives in the store's slab. Required.
	Init func(v *T, now time.Time)
	// OnEvict, if set, observes sessions as they expire (used to fold
	// session summaries into population baselines). It must not keep the
	// pointer or call back into the store.
	OnEvict func(Key, *T)
	// Snapshot, if set, serialises one session value into a snapshot; see
	// SnapshotInto. Restore must read back exactly what Snapshot wrote.
	Snapshot func(w *statecodec.Writer, v *T)
	// Restore, if set, fills a freshly initialised session value from a
	// snapshot; see RestoreFrom. It must return an error (never panic) on
	// corrupt input.
	Restore func(r *statecodec.Reader, v *T) error
}

// NewStore validates cfg and returns an empty store.
func NewStore[T any](cfg Config[T]) (*Store[T], error) {
	if cfg.IdleTimeout <= 0 {
		return nil, fmt.Errorf("sessions: IdleTimeout must be positive, got %v", cfg.IdleTimeout)
	}
	if cfg.Init == nil {
		return nil, fmt.Errorf("sessions: Init is required")
	}
	return &Store[T]{
		idle:      cfg.IdleTimeout,
		init:      cfg.Init,
		onEvict:   cfg.OnEvict,
		snapshotV: cfg.Snapshot,
		restoreV:  cfg.Restore,
		index:     make([]uint64, minIndex),
		seed:      [2]uint64{rand.Uint64(), rand.Uint64()},
	}, nil
}

// Touch returns the state for key as of now, creating it if absent or if
// the previous session expired. The second result reports whether a new
// session started. Touch also expires any sessions idle at now. A key that
// is still the most recently touched one — scraping traffic comes in runs
// of one client — is answered from the list's tail, without a hash. The
// pointer is into the slab: use it before the next call on the store.
func (s *Store[T]) Touch(key Key, now time.Time) (*T, bool) {
	at := instant.Of(now)
	s.expire(at)
	if s.tail != 0 {
		if n := s.nodes.At(s.tail); n.key == key {
			n.lastSeen = at
			return &n.value, false
		}
	}
	tag := s.tag(key)
	slot, id := s.find(key, tag)
	if id != 0 {
		n := s.nodes.At(id)
		n.lastSeen = at
		s.unlink(n)
		s.pushTail(id, n)
		return &n.value, false
	}
	n := s.admit(key, tag, slot, at)
	s.init(&n.value, now)
	return &n.value, true
}

// admit takes a slot for a key find did not see, indexes it at the free
// index slot find returned and links it in as most recently touched. The
// value is zero.
func (s *Store[T]) admit(key Key, tag, slot uint32, at int64) *node[T] {
	if (s.live+1)*4 > len(s.index)*3 {
		s.reindex(2 * len(s.index))
		slot, _ = s.find(key, tag)
	}
	id, n := s.nodes.Alloc()
	n.key, n.lastSeen = key, at
	s.index[slot] = uint64(tag)<<32 | uint64(id)
	s.live++
	s.pushTail(id, n)
	return n
}

// tag hashes key under the store's seed; the index keeps the 32 bits and
// takes a slot's home from their low end. Two multiply-fold rounds in the
// manner of wyhash: without the seed, neither which keys share a home nor
// which share a tag can be computed.
func (s *Store[T]) tag(key Key) uint32 {
	hi, lo := bits.Mul64(uint64(key.IP)^s.seed[0], key.UAHash^s.seed[1])
	hi, lo = bits.Mul64(hi^lo^s.seed[0], s.seed[1]|1)
	return uint32((hi ^ lo) >> 32)
}

// find probes for key. It returns the key's index slot and node id, or —
// the index is never full — the free slot the key would take and id 0.
func (s *Store[T]) find(key Key, tag uint32) (slot, id uint32) {
	mask := uint32(len(s.index) - 1)
	for slot = tag & mask; ; slot = (slot + 1) & mask {
		e := s.index[slot]
		if e == 0 {
			return slot, 0
		}
		if uint32(e>>32) == tag && s.nodes.At(uint32(e)).key == key {
			return slot, uint32(e)
		}
	}
}

// unindex removes slot's entry and closes the gap: each later entry of
// the run moves back into the hole unless that would put it before its
// home.
func (s *Store[T]) unindex(slot uint32) {
	mask := uint32(len(s.index) - 1)
	for next := (slot + 1) & mask; ; next = (next + 1) & mask {
		e := s.index[next]
		if e == 0 {
			break
		}
		if home := uint32(e>>32) & mask; (next-home)&mask >= (next-slot)&mask {
			s.index[slot] = e
			slot = next
		}
	}
	s.index[slot] = 0
}

// reindex moves every entry into an index of the given length. A slot's
// home comes from its tag, so no node is read.
func (s *Store[T]) reindex(length int) {
	old := s.index
	s.index = make([]uint64, length)
	mask := uint32(length - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		slot := uint32(e>>32) & mask
		for s.index[slot] != 0 {
			slot = (slot + 1) & mask
		}
		s.index[slot] = e
	}
}

// Peek returns the state for key without refreshing its idle timer, or
// nil when absent.
func (s *Store[T]) Peek(key Key) *T {
	if _, id := s.find(key, s.tag(key)); id != 0 {
		return &s.nodes.At(id).value
	}
	return nil
}

// Len returns the number of live sessions.
func (s *Store[T]) Len() int { return s.live }

// Evictions returns the number of sessions expired so far.
func (s *Store[T]) Evictions() uint64 { return s.evicts }

// FlushAll evicts every live session (end of log), invoking OnEvict.
func (s *Store[T]) FlushAll() {
	s.evictBefore(math.MaxInt64) // past instant.Latest
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
	return s.evictBefore(instant.Of(cutoff))
}

// expire evicts sessions idle longer than the timeout as of now. The LRU
// list keeps entries in last-touch order, so expiry pops from the head.
func (s *Store[T]) expire(now int64) {
	if s.head == 0 {
		return
	}
	if deadline := instant.Add(now, -s.idle); s.nodes.At(s.head).lastSeen < deadline {
		s.evictBefore(deadline)
	}
}

// evictBefore pops the head while it was last touched before cutoff, then
// gives the slab back if that emptied most of it.
func (s *Store[T]) evictBefore(cutoff int64) int {
	evicted := 0
	for s.head != 0 {
		n := s.nodes.At(s.head)
		if n.lastSeen >= cutoff {
			break
		}
		id := s.head
		s.unlink(n)
		slot, _ := s.find(n.key, s.tag(n.key))
		s.unindex(slot)
		s.live--
		s.evicts++
		if s.onEvict != nil {
			s.onEvict(n.key, &n.value)
		}
		s.nodes.Release(id)
		evicted++
	}
	if evicted > 0 && s.nodes.Sparse(s.live) {
		s.compact()
	}
	return evicted
}

// compact rebuilds the slab around the live sessions: nodes are copied in
// LRU order into new chunks (so ids run 1..live from oldest to newest),
// the index is sized for them at no more than half full, and the old
// chunks and index go to the collector.
func (s *Store[T]) compact() {
	old := *s
	s.release(old.live)
	for id := old.head; id != 0; {
		from := old.nodes.At(id)
		tag := s.tag(from.key)
		slot, _ := s.find(from.key, tag)
		s.admit(from.key, tag, slot, from.lastSeen).value = from.value
		id = from.next
	}
}

// release forgets every session and lets the slab and index go for ones
// sized to admit live sessions without growing; configuration, seed and
// the eviction count stay.
func (s *Store[T]) release(live int) {
	length := minIndex
	for length < 2*live {
		length *= 2
	}
	s.nodes.Reset(live)
	s.index = make([]uint64, length)
	s.live, s.head, s.tail = 0, 0, 0
}

// RangeNewest walks live sessions from most to least recently touched
// and stops when fn returns false. The LRU list keeps entries in
// last-touch order, so a caller collecting "sessions active since T" —
// the cluster plane's session digests — visits exactly the active ones
// and stops at the first stale entry instead of scanning the store.
func (s *Store[T]) RangeNewest(fn func(key Key, lastSeen time.Time) bool) {
	for id := s.tail; id != 0; {
		n := s.nodes.At(id)
		if !fn(n.key, instant.Time(n.lastSeen)) {
			return
		}
		id = n.prev
	}
}

// Reset drops every live session, returning the store to its
// just-constructed condition without invoking OnEvict — a reset is an
// operator action, not session expiry.
func (s *Store[T]) Reset() {
	s.release(0)
	s.evicts = 0
}

func (s *Store[T]) pushTail(id uint32, n *node[T]) {
	n.prev, n.next = s.tail, 0
	if s.tail != 0 {
		s.nodes.At(s.tail).next = id
	} else {
		s.head = id
	}
	s.tail = id
}

func (s *Store[T]) unlink(n *node[T]) {
	if n.prev != 0 {
		s.nodes.At(n.prev).next = n.next
	} else {
		s.head = n.next
	}
	if n.next != 0 {
		s.nodes.At(n.next).prev = n.prev
	} else {
		s.tail = n.prev
	}
}
