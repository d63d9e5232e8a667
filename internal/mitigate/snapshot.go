package mitigate

import (
	"fmt"
	"sort"

	"divscrape/internal/instant"
	"divscrape/internal/statecodec"
)

// tagEngine opens a mitigation-engine block in a snapshot.
const tagEngine uint16 = 0x4D01

// Snapshot support. An engine serialises every client's ladder position —
// suspicion score, rung, unanswered-challenge streak, pass window, last
// activity — plus the lifetime action tally, in sorted key order so equal
// engines always produce equal bytes. As with the detectors, two shapes
// are provided: SnapshotInto/RestoreFrom for one engine, and
// SnapshotMerged/RestorePartitioned for a key-partitioned engine set
// (httpguard runs one engine per shard). Merged snapshots do not record
// shard membership, so they restore across any partition — the mechanism
// behind live resharding. Policies are configuration and must match on
// both sides; the aggregate action tally of a merged snapshot is restored
// onto the first engine, preserving fleet totals.

// SnapshotInto implements statecodec.Snapshotter.
func (e *Engine) SnapshotInto(w *statecodec.Writer) {
	SnapshotMerged(w, []*Engine{e})
}

// RestoreFrom implements statecodec.Snapshotter, replacing all client
// state.
func (e *Engine) RestoreFrom(r *statecodec.Reader) error {
	return RestorePartitioned(r, []*Engine{e}, func(string) int { return 0 })
}

// SnapshotMerged writes the union of the engines' client states as one
// canonical snapshot. Engines must hold disjoint key sets.
func SnapshotMerged(w *statecodec.Writer, engines []*Engine) {
	total := 0
	var counts ActionCounts
	for _, e := range engines {
		total += e.ids.len()
		counts.Add(e.counts)
	}
	keys := make([]string, 0, total)
	owner := make(map[string]*clientState, total)
	var dup string
	for _, e := range engines {
		e.ids.each(func(ck clientKey, id uint32) {
			k := ck.String()
			if _, held := owner[k]; held {
				dup = k
			}
			owner[k] = e.states.At(id)
			keys = append(keys, k)
		})
	}
	if len(keys) != len(owner) {
		w.Fail(fmt.Errorf("mitigate: client %q held by two engines; shards are not key-disjoint", dup))
		return
	}
	sort.Strings(keys)

	w.Tag(tagEngine)
	w.Uint64(counts.Allowed)
	w.Uint64(counts.Tarpitted)
	w.Uint64(counts.Challenged)
	w.Uint64(counts.Blocked)
	w.Uint32(uint32(len(keys)))
	for _, k := range keys {
		st := owner[k]
		w.String(k)
		w.Float64(st.score)
		w.Uint8(uint8(st.level))
		w.Int(int(st.challenged))
		w.Time(instant.Time(st.passUntil))
		w.Time(instant.Time(st.lastSeen))
	}
}

// RestorePartitioned distributes a canonical snapshot across engines:
// each client goes to engines[part(key)]. All engines are Reset first; a
// decode failure leaves them empty rather than half-restored. The
// aggregate action tally is restored onto engines[0].
func RestorePartitioned(r *statecodec.Reader, engines []*Engine, part func(key string) int) error {
	for _, e := range engines {
		e.Reset()
	}
	if err := restorePartitioned(r, engines, part); err != nil {
		for _, e := range engines {
			e.Reset()
		}
		return err
	}
	return nil
}

func restorePartitioned(r *statecodec.Reader, engines []*Engine, part func(key string) int) error {
	if err := r.Expect(tagEngine); err != nil {
		return err
	}
	engines[0].counts = ActionCounts{
		Allowed:    r.Uint64(),
		Tarpitted:  r.Uint64(),
		Challenged: r.Uint64(),
		Blocked:    r.Uint64(),
	}
	// Minimum entry: empty key (4) + score (8) + level (1) + challenged
	// (8) + two timestamps (12 each).
	n := r.Count(4 + 8 + 1 + 8 + 12 + 12)
	for i := 0; i < n; i++ {
		k := r.String()
		score, level, count := r.Float64(), Action(r.Uint8()), r.Int()
		st := clientState{
			score:     score,
			level:     level,
			passUntil: instant.Of(r.Time()),
			lastSeen:  instant.Of(r.Time()),
		}
		if r.Err() != nil {
			return r.Err()
		}
		if st.level > Block {
			return fmt.Errorf("%w: ladder rung %d", statecodec.ErrCorrupt, uint8(st.level))
		}
		var ok bool
		if st.challenged, ok = streak(count); !ok {
			return fmt.Errorf("%w: unanswered-challenge count %d", statecodec.ErrCorrupt, count)
		}
		idx := part(k)
		if idx < 0 || idx >= len(engines) {
			return fmt.Errorf("mitigate: partition function returned %d for %d engines", idx, len(engines))
		}
		e := engines[idx]
		if _, dup := e.ids.get(k); dup {
			return fmt.Errorf("%w: duplicate client %q", statecodec.ErrCorrupt, k)
		}
		*e.client(k, st.lastSeen) = st
	}
	return r.Err()
}
