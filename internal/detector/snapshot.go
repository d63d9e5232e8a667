package detector

import (
	"divscrape/internal/statecodec"
)

// The durable state plane's detector-facing contracts. A detector that
// can serialise its per-client state implements statecodec.Snapshotter
// (re-exported here as Snapshotter so detector packages need only one
// import); one that can additionally merge state across key-partitioned
// shard instances and redistribute it over a different partition
// implements ShardedSnapshotter, which is what lets a checkpoint taken
// at one shard count resume at another and lets httpguard reshard a
// running guard without dropping per-client histories.

// Snapshotter is the single-instance snapshot capability. SnapshotInto
// serialises all per-client dynamic state (configuration travels with
// the constructing code, not the snapshot); RestoreFrom rebuilds it into
// an identically configured instance and must return an error — never
// panic — on corrupt input.
type Snapshotter = statecodec.Snapshotter

// ShardedSnapshotter extends Snapshotter across a key-partitioned shard
// set. Both methods are invoked on one instance (conventionally shard 0)
// with the full instance list, which must be of the same concrete type
// and hold key-disjoint client populations.
type ShardedSnapshotter interface {
	Snapshotter
	// SnapshotShardsInto writes the canonical union of the instances'
	// state. The encoding must be identical to what a single instance
	// holding all those clients would write, so snapshots are
	// shard-topology independent.
	SnapshotShardsInto(w *statecodec.Writer, shards []Detector) error
	// RestoreShards distributes a canonical snapshot across the
	// instances: each client's state goes to shards[part(ip)], where ip
	// is the client's numeric address. Every instance is cleared first.
	RestoreShards(r *statecodec.Reader, shards []Detector, part func(ip uint32) int) error
}

// tagEnricher opens the stream-position block in a snapshot; the name is
// the format's: the enricher once wrote it for its own counter.
const tagEnricher uint16 = 0x4501

// SnapshotSeq writes a stream position as its block: what a host that
// numbers the stream — the pipeline, the facade's DetectorSet — writes
// ahead of its detectors' state. The enricher's caches are not state:
// they are memoisation, rebuilt on demand with identical results.
func SnapshotSeq(w *statecodec.Writer, seq uint64) {
	w.Tag(tagEnricher)
	w.Uint64(seq)
}

// RestoreSeq reads the position SnapshotSeq wrote.
func RestoreSeq(r *statecodec.Reader) (uint64, error) {
	if err := r.Expect(tagEnricher); err != nil {
		return 0, err
	}
	seq := r.Uint64()
	return seq, r.Err()
}
