package stats

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"divscrape/internal/instant"
	"divscrape/internal/statecodec"
)

// Snapshot support: every streaming accumulator detectors embed in
// per-client state can serialise its dynamic fields through the state
// codec and restore them into an identically configured instance, so
// session histories survive process restarts. Configuration (half-lives)
// is not serialised — it comes from code — only the accumulated
// observations are.

// Section tags; Expect on restore catches snapshots spliced out of order.
// 0x5704 and 0x5705 (EWMA, P2Quantile) are retired: never reuse them.
const (
	tagWelford   uint16 = 0x5701
	tagCountSet  uint16 = 0x5702
	tagDecayRate uint16 = 0x5703
)

// SnapshotInto implements statecodec.Snapshotter.
func (w *Welford) SnapshotInto(sw *statecodec.Writer) {
	sw.Tag(tagWelford)
	sw.Uint64(w.n)
	sw.Float64(w.mean)
	sw.Float64(w.m2)
}

// RestoreFrom implements statecodec.Snapshotter.
func (w *Welford) RestoreFrom(r *statecodec.Reader) error {
	if err := r.Expect(tagWelford); err != nil {
		return err
	}
	w.n = r.Uint64()
	w.mean = r.Float64()
	w.m2 = r.Float64()
	return r.Err()
}

// SnapshotInto implements statecodec.Snapshotter. Categories are written
// in sorted order, so equal count sets always serialise to equal bytes
// regardless of map iteration order; they are sorted in the writer's
// scratch.
func (s *CountSet) SnapshotInto(w *statecodec.Writer) {
	w.Tag(tagCountSet)
	scratch := w.StringScratch()
	keys := (*scratch)[:0]
	if s.firstCount > 0 {
		keys = append(keys, s.first)
	}
	for k := range s.more {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	*scratch = keys
	w.Uint32(uint32(len(keys)))
	for _, k := range keys {
		c, ok := s.more[k]
		if !ok {
			c = s.firstCount
		}
		w.String(k)
		w.Uint64(c)
	}
	clear(keys) // the scratch outlives this set: hold none of its keys
}

// RestoreFrom implements statecodec.Snapshotter, replacing the current
// contents. Only what SnapshotInto can have written is accepted — keys
// strictly ascending, no zero counts — and the total is recomputed from
// the restored counts, so the count/total invariant holds even against a
// corrupt payload.
func (s *CountSet) RestoreFrom(r *statecodec.Reader) error {
	if err := r.Expect(tagCountSet); err != nil {
		return err
	}
	s.Reset()
	n := r.Count(4 + 8) // min bytes per entry: empty string + count
	prev := ""
	for i := 0; i < n; i++ {
		k := r.String()
		c := r.Uint64()
		if r.Err() != nil {
			return r.Err()
		}
		if c == 0 || (i > 0 && k <= prev) {
			return fmt.Errorf("%w: count set entry %d: key %q (after %q) with count %d", statecodec.ErrCorrupt, i, k, prev, c)
		}
		s.add(k, c)
		prev = k
	}
	return r.Err()
}

// SnapshotInto writes the id count and then every id in ascending order,
// so equal sets serialise to equal bytes whichever form holds them. It
// writes no section tag: the set is always a field inside a session record,
// and this is the encoding those records had when the field was a map.
// Inline ids, or the table's block slot numbers, are sorted in the writer's
// scratch.
func (s *IDSet) SnapshotInto(w *statecodec.Writer) {
	scratch := w.IntScratch()
	order := (*scratch)[:0]
	w.Uint32(uint32(s.Len()))
	if s.table == nil {
		for _, id := range s.ids[:s.n] {
			order = append(order, int(id))
		}
		slices.Sort(order)
		for _, id := range order {
			w.Int(id)
		}
		*scratch = order
		return
	}
	slots := s.table
	for i, b := range slots {
		if b.bits != 0 {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(slots[a].key, slots[b].key) })
	*scratch = order
	for _, i := range order {
		b := slots[i]
		for rest := b.bits; rest != 0; rest &= rest - 1 {
			w.Int(int(b.key<<6) | bits.TrailingZeros64(rest))
		}
	}
}

// RestoreFrom replaces the set with what SnapshotInto wrote. Ids must be
// non-negative and strictly ascending: no writer emits anything else.
func (s *IDSet) RestoreFrom(r *statecodec.Reader) error {
	s.Reset()
	n := r.Count(8)
	prev := -1
	for i := 0; i < n; i++ {
		id := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if id <= prev {
			return fmt.Errorf("%w: id set entry %d is %d after %d", statecodec.ErrCorrupt, i, id, prev)
		}
		s.Add(id)
		prev = id
	}
	return r.Err()
}

// SnapshotInto implements statecodec.Snapshotter.
func (d *DecayRate) SnapshotInto(w *statecodec.Writer) {
	w.Tag(tagDecayRate)
	w.Float64(d.rate)
	w.Time(instant.Time(d.last))
	w.Bool(d.seen)
}

// RestoreFrom implements statecodec.Snapshotter. The half-life is a
// parameter, not state: the snapshot never held it.
func (d *DecayRate) RestoreFrom(r *statecodec.Reader) error {
	if err := r.Expect(tagDecayRate); err != nil {
		return err
	}
	d.rate = r.Float64()
	d.last = instant.Of(r.Time())
	d.seen = r.Bool()
	return r.Err()
}
