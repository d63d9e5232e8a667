package iprep

import (
	"sync/atomic"
	"time"
)

// Dynamic reputation overlay: real feeds are not static — operators push
// newly confirmed scraper infrastructure, proxy exits appear and age out,
// and a long-running deployment must be able to absorb those updates
// without rebuilding its database. MergeTemporary registers a prefix
// with an expiry; EvictBefore (driven by the same windowed sweeper that
// bounds every other stateful layer) retires entries whose TTL has
// passed.
//
// The overlay is copy-on-write behind an atomic pointer: lookups stay
// lock- and allocation-free on the hot path (httpguard shares one DB
// across all shards), while the infrequent mutations swap in a fresh
// immutable slice. Between sweeps an expired entry can still match — the
// sweep cadence, not the lookup, bounds staleness, which keeps Lookup
// free of a time parameter. Temporary entries are runtime intel, not
// configuration, so they are deliberately excluded from snapshots: a
// restored process re-learns them from its feed.

// tempEntry is one TTL-bounded overlay entry.
type tempEntry struct {
	prefix Prefix
	cat    Category
	until  time.Time
}

// overlay is the immutable published form of the dynamic entries.
type overlay struct {
	entries []tempEntry
}

// EvictBefore removes overlay entries whose expiry is before cutoff and
// returns the number removed. It is the iprep face of the sweeper's
// Evictable contract.
func (db *DB) EvictBefore(cutoff time.Time) int {
	db.tempMu.Lock()
	defer db.tempMu.Unlock()
	old := db.loadOverlay()
	kept := make([]tempEntry, 0, len(old))
	for _, e := range old {
		if !e.until.Before(cutoff) {
			kept = append(kept, e)
		}
	}
	evicted := len(old) - len(kept)
	if evicted > 0 {
		db.temp.Store(&overlay{entries: kept})
	}
	return evicted
}

// TempEntry is one overlay entry in exported, replicable form — the unit
// the cluster plane ships between nodes, since the overlay (unlike the
// static feed) is runtime intelligence a restarted or joining peer cannot
// rebuild on its own.
type TempEntry struct {
	// Prefix is the covered address range.
	Prefix Prefix
	// Cat is the reputation category asserted for the range.
	Cat Category
	// Until is the entry's expiry.
	Until time.Time
}

// TempEntries streams the live overlay entries. The snapshot it iterates
// is the immutable published slice, so it is safe against concurrent
// mutators and never blocks lookups.
func (db *DB) TempEntries(fn func(TempEntry)) {
	for _, e := range db.loadOverlay() {
		fn(TempEntry{Prefix: e.prefix, Cat: e.cat, Until: e.until})
	}
}

// MergeTemporary folds a replicated overlay entry in with
// longest-lease-wins semantics: an unknown prefix is inserted, a known
// one is replaced only when the incoming expiry is strictly later. It
// reports whether the entry was applied. Stale and duplicate deliveries
// are no-ops, so merging is idempotent and order-independent — the same
// convergence contract the mitigation digests carry. Entries with an
// out-of-range prefix or an unknown category are rejected outright:
// this is the door replicated peer state walks through.
func (db *DB) MergeTemporary(e TempEntry) bool {
	if e.Prefix.Bits < 0 || e.Prefix.Bits > 32 || !e.Cat.Valid() {
		return false
	}
	db.tempMu.Lock()
	defer db.tempMu.Unlock()
	old := db.loadOverlay()
	for _, cur := range old {
		if cur.prefix == e.Prefix && !e.Until.After(cur.until) {
			return false
		}
	}
	entries := make([]tempEntry, 0, len(old)+1)
	for _, cur := range old {
		if cur.prefix != e.Prefix {
			entries = append(entries, cur)
		}
	}
	entries = append(entries, tempEntry{prefix: e.Prefix, cat: e.Cat, until: e.Until})
	db.temp.Store(&overlay{entries: entries})
	return true
}

// loadOverlay returns the current overlay entries (nil when none).
func (db *DB) loadOverlay() []tempEntry {
	if o := db.temp.Load(); o != nil {
		return o.entries
	}
	return nil
}

// lookupTemp finds the most specific overlay match at least as specific
// as minBits.
func (db *DB) lookupTemp(ip uint32, minBits int, have bool) (Category, bool, int) {
	cat, found, bits := Unknown, false, minBits
	first := !have
	for _, e := range db.loadOverlay() {
		if !e.prefix.Contains(ip) {
			continue
		}
		if first || e.prefix.Bits >= bits {
			cat, found, bits = e.cat, true, e.prefix.Bits
			first = false
		}
	}
	return cat, found, bits
}

// tempPtr aliases atomic.Pointer so the DB struct in trie.go stays
// focused on the radix trie.
type tempPtr = atomic.Pointer[overlay]
