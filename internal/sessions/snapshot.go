package sessions

import (
	"fmt"
	"sort"

	"divscrape/internal/instant"
	"divscrape/internal/statecodec"
)

// Snapshot support. A store serialises its live session set — key, last
// activity, and the session value through the Config.Snapshot hook — and
// restores it into a store built with the same configuration. Two shapes
// are provided:
//
//   - SnapshotInto / RestoreFrom: one store, e.g. a sequential pipeline's
//     detector.
//
//   - SnapshotMerged / RestorePartitioned: N key-partitioned stores (one
//     per shard) merged into a single canonical snapshot, and a canonical
//     snapshot distributed across M stores by a caller-supplied partition
//     function. Because the entry stream is sorted by (lastSeen, key),
//     the snapshot does not record which shard held which client — which
//     is exactly what lets a checkpoint taken at one shard count restore
//     at another, and what httpguard's live resharding is built on.
//
// Entries are written in ascending (lastSeen, key) order. Restoring in
// that order rebuilds a valid LRU list (stores only ever see monotonic
// touch times, so list order and lastSeen order agree); among sessions
// with equal timestamps the order is canonicalised by key, which cannot
// change behaviour — idle expiry is decided per-entry from lastSeen
// alone. The touch/eviction diagnostics counters are process-local and
// deliberately not serialised.
//
// The value hooks must be symmetric: Restore must consume exactly the
// bytes Snapshot wrote. Configuration (idle timeout, constructors) is not
// serialised and must match on both sides.

// tagStore opens a session-store block in a snapshot.
const tagStore uint16 = 0x5501

// snapshotEntry is one live session flattened for sorting; value points
// into its store's slab, which nothing touches until the entry is written.
type snapshotEntry[T any] struct {
	key      Key
	lastSeen int64
	value    *T
}

// entryLess orders snapshot entries canonically: by last activity, then
// by key for determinism among equal timestamps.
func entryLess[T any](a, b *snapshotEntry[T]) bool {
	if a.lastSeen != b.lastSeen {
		return a.lastSeen < b.lastSeen
	}
	if a.key.IP != b.key.IP {
		return a.key.IP < b.key.IP
	}
	return a.key.UAHash < b.key.UAHash
}

// SnapshotInto implements statecodec.Snapshotter. It requires the
// Config.Snapshot hook; a store built without one fails the writer.
func (s *Store[T]) SnapshotInto(w *statecodec.Writer) {
	SnapshotMerged(w, []*Store[T]{s})
}

// RestoreFrom implements statecodec.Snapshotter, replacing all live
// sessions. It requires the Config.Restore hook.
func (s *Store[T]) RestoreFrom(r *statecodec.Reader) error {
	return RestorePartitioned(r, []*Store[T]{s}, func(Key) int { return 0 })
}

// SnapshotMerged writes the union of the stores' live sessions as one
// canonical snapshot. The stores must hold disjoint key sets (the
// invariant key-partitioned shards maintain by construction); a key seen
// twice fails the writer, since a snapshot that silently dropped one of
// the duplicates would restore to a different state than it saw.
//
// Before serialising, every store's pending idle expiry is applied as of
// the latest activity across all of them. Expiry is lazy — a shard only
// evicts when it is touched — so a quiet shard can hold sessions a
// single-instance run would already have dropped; settling them here
// cannot change any future decision (expiry is decided per entry from
// its own lastSeen) but makes the snapshot canonical: the same traffic
// prefix serialises to the same bytes at any shard count.
func SnapshotMerged[T any](w *statecodec.Writer, stores []*Store[T]) {
	latest := instant.Never
	for _, s := range stores {
		if s.snapshotV == nil {
			w.Fail(fmt.Errorf("sessions: store has no Snapshot hook"))
			return
		}
		if s.tail != 0 {
			latest = max(latest, s.nodes.At(s.tail).lastSeen)
		}
	}
	total := 0
	for _, s := range stores {
		s.expire(latest)
		total += s.Len()
	}
	entries := make([]snapshotEntry[T], 0, total)
	// One store cannot hold a key twice: only a merge of several needs
	// the proof that they are key-disjoint.
	var seen map[Key]struct{}
	if len(stores) > 1 {
		seen = make(map[Key]struct{}, total)
	}
	for _, s := range stores {
		for id := s.head; id != 0; {
			n := s.nodes.At(id)
			if seen != nil {
				if _, dup := seen[n.key]; dup {
					w.Fail(fmt.Errorf("sessions: key %v held by two stores; shards are not key-disjoint", n.key))
					return
				}
				seen[n.key] = struct{}{}
			}
			entries = append(entries, snapshotEntry[T]{key: n.key, lastSeen: n.lastSeen, value: &n.value})
			id = n.next
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entryLess(&entries[i], &entries[j]) })
	w.Tag(tagStore)
	w.Uint32(uint32(len(entries)))
	for i := range entries {
		w.Uint32(entries[i].key.IP)
		w.Uint64(entries[i].key.UAHash)
		w.Time(instant.Time(entries[i].lastSeen))
		stores[0].snapshotV(w, entries[i].value)
	}
}

// RestorePartitioned distributes a canonical snapshot across stores: each
// session goes to stores[part(key)]. Every store is Reset first, so a
// failed restore leaves empty stores rather than a half-merged state.
// part may ignore its argument when restoring into a single store.
func RestorePartitioned[T any](r *statecodec.Reader, stores []*Store[T], part func(Key) int) error {
	for _, s := range stores {
		if s.restoreV == nil {
			return fmt.Errorf("sessions: store has no Restore hook")
		}
		s.Reset()
	}
	if err := restorePartitioned(r, stores, part); err != nil {
		// Leave empty stores rather than a half-restored session set.
		for _, s := range stores {
			s.Reset()
		}
		return err
	}
	return nil
}

func restorePartitioned[T any](r *statecodec.Reader, stores []*Store[T], part func(Key) int) error {
	if err := r.Expect(tagStore); err != nil {
		return err
	}
	// Minimum entry size: key (4+8) + timestamp (8+4).
	n := r.Count(4 + 8 + 8 + 4)
	prev := instant.Never
	for i := 0; i < n; i++ {
		key := Key{IP: r.Uint32(), UAHash: r.Uint64()}
		last := instant.Of(r.Time())
		if r.Err() != nil {
			return r.Err()
		}
		if last < prev {
			return fmt.Errorf("%w: session entries out of order", statecodec.ErrCorrupt)
		}
		prev = last
		idx := part(key)
		if idx < 0 || idx >= len(stores) {
			return fmt.Errorf("sessions: partition function returned %d for %d stores", idx, len(stores))
		}
		if err := stores[idx].restoreEntry(key, last, r); err != nil {
			return err
		}
	}
	return r.Err()
}

// restoreEntry appends one restored session at the LRU tail. Callers feed
// entries in ascending lastSeen order, so the tail is always the right
// position; on an error the caller resets the store.
func (s *Store[T]) restoreEntry(key Key, lastSeen int64, r *statecodec.Reader) error {
	tag := s.tag(key)
	slot, id := s.find(key, tag)
	if id != 0 {
		return fmt.Errorf("%w: duplicate session key %v", statecodec.ErrCorrupt, key)
	}
	v := &s.admit(key, tag, slot, lastSeen).value
	s.init(v, instant.Time(lastSeen))
	return s.restoreV(r, v)
}
