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
// touch as integer nanoseconds (internal/instant).
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
// # Density
//
// A Go map never gives its buckets back: after a flood is evicted it
// holds its peak forever. Node ids are instead always 1..live. Evicting a
// node moves the newest one into its slot, re-pointing its index entry and
// links, and pops the last slot (slab.Pop), so a store holds its live
// sessions plus at most two chunks. A batch of evictions that empties a
// store of more than a chunk drops the slab, and the index is re-sized
// once it falls under an eighth full.
//
// # Pointer validity
//
// A *T returned by Touch or Peek points into the slab and is valid only
// until the next call on the store: the next Touch may grow the first
// chunk, or evict and move another node into the slot (slab.Pop). Every
// caller uses the record and lets go.
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
		s.link(n.prev, n.next)
		s.pushTail(id)
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
	s.pushTail(id)
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

// IdleTimeout is how long a session outlives its last touch.
func (s *Store[T]) IdleTimeout() time.Duration { return s.idle }

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
	if deadline := instant.Add(now, -s.idle); s.head != 0 && s.nodes.At(s.head).lastSeen < deadline {
		s.evictBefore(deadline)
	}
}

// evictBefore pops the head while it was last touched before cutoff, then
// gives memory back if that emptied the store or most of the index.
func (s *Store[T]) evictBefore(cutoff int64) int {
	flood := s.live > slab.ChunkLen
	evicted := 0
	for s.head != 0 {
		id, n := s.head, s.nodes.At(s.head)
		if n.lastSeen >= cutoff {
			break
		}
		s.link(n.prev, n.next)
		slot, _ := s.find(n.key, s.tag(n.key))
		s.unindex(slot)
		s.evicts++
		if s.onEvict != nil {
			s.onEvict(n.key, &n.value)
		}
		s.fill(id, n)
		evicted++
	}
	if s.live == 0 && flood {
		s.nodes.Reset(0)
	}
	if len(s.index) > minIndex && s.live*8 < len(s.index) {
		s.reindex(1 << bits.Len(uint(max(minIndex, 2*s.live)-1)))
	}
	return evicted
}

// fill keeps ids dense once node id, already unlinked and unindexed, is
// gone: the newest node moves into its slot, the index entry and list
// links naming that node are re-pointed, and the last slot is popped.
func (s *Store[T]) fill(id uint32, hole *node[T]) {
	last := uint32(s.live)
	s.live--
	if id != last {
		*hole = *s.nodes.At(last)
		tag := s.tag(hole.key)
		mask := uint32(len(s.index) - 1)
		slot := tag & mask
		for uint32(s.index[slot]) != last {
			slot = (slot + 1) & mask
		}
		s.index[slot] = uint64(tag)<<32 | uint64(id)
		s.link(hole.prev, id)
		s.link(id, hole.next)
	}
	s.nodes.Pop()
}

// Reset drops every live session, returning the store to its
// just-constructed condition without invoking OnEvict — a reset is an
// operator action, not session expiry.
func (s *Store[T]) Reset() {
	s.nodes.Reset(0)
	s.index = make([]uint64, minIndex)
	s.live, s.head, s.tail, s.evicts = 0, 0, 0, 0
}

func (s *Store[T]) pushTail(id uint32) {
	s.link(s.tail, id)
	s.nodes.At(id).next, s.tail = 0, id
}

// link makes node b follow node a; 0 on either side is the list's end.
func (s *Store[T]) link(a, b uint32) {
	if a != 0 {
		s.nodes.At(a).next = b
	} else {
		s.head = b
	}
	if b != 0 {
		s.nodes.At(b).prev = a
	} else {
		s.tail = a
	}
}
