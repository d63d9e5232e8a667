package pipeline

import (
	"fmt"

	"divscrape/internal/detector"
	"divscrape/internal/mitigate"
	"divscrape/internal/statecodec"
)

// Checkpoint-resume: a pipeline can serialise everything a future
// process needs to continue a replay exactly where this one stopped —
// the stream position and every detector's per-client state
// — and a freshly constructed pipeline can restore it and produce a
// decision stream byte-identical to the run that was never interrupted.
//
// The snapshot is topology-independent: detector state is written in the
// canonical merged form (see detector.ShardedSnapshotter), with no record
// of the mode or shard count that produced it, so a checkpoint taken by a
// sequential replay resumes into a 16-shard pipeline and vice versa. The
// only requirement is that both sides are built from the same detector
// configuration, in the same order.

// tagPipeline opens a pipeline checkpoint block.
const tagPipeline uint16 = 0x5043

// Checkpoint serialises the pipeline's full detection state into w. The
// pipeline must be idle (between Run calls); every registered detector
// must implement detector.Snapshotter — in Sharded mode,
// detector.ShardedSnapshotter. Checkpoint settles pending idle expiry
// across shards (a decision-neutral operation) but otherwise leaves the
// pipeline ready to continue.
func (p *Pipeline) Checkpoint(w *statecodec.Writer) error {
	w.Tag(tagPipeline)
	detector.SnapshotSeq(w, p.seq)
	roles, err := p.shards.Roles()
	if err != nil {
		return fmt.Errorf("pipeline: checkpoint: %w", err)
	}
	w.Uint16(uint16(len(roles)))
	for j, role := range roles {
		w.String(role[0].Name())
		if err := detector.SnapshotRole(w, role); err != nil {
			return fmt.Errorf("pipeline: checkpoint detector %d: %w", j, err)
		}
	}
	return w.Err()
}

// ResumeFrom restores a checkpoint into this pipeline, replacing the
// stream position and all detector state. The pipeline must be idle and
// built with the same detectors (same names, same order, same
// configuration) as the one that wrote the checkpoint; the shard count may
// differ freely. On error the pipeline's detectors are left reset, never
// half-restored.
func (p *Pipeline) ResumeFrom(r *statecodec.Reader) error {
	if err := p.resumeFrom(r); err != nil {
		p.ResetDetectors()
		return err
	}
	return nil
}

func (p *Pipeline) resumeFrom(r *statecodec.Reader) error {
	if err := r.Expect(tagPipeline); err != nil {
		return err
	}
	seq, err := detector.RestoreSeq(r)
	if err != nil {
		return err
	}
	p.seq = seq
	roles, err := p.shards.Roles()
	if err != nil {
		return err
	}
	if got := int(r.Uint16()); got != len(roles) {
		if err := r.Err(); err != nil {
			return err
		}
		return fmt.Errorf("%w: checkpoint has %d detectors, pipeline has %d",
			statecodec.ErrCorrupt, got, len(roles))
	}
	// Sequential mode is the one-shard case: every client hashes to 0.
	for j, role := range roles {
		name := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		if name != role[0].Name() {
			return fmt.Errorf("%w: checkpoint detector %d is %q, pipeline has %q",
				statecodec.ErrCorrupt, j, name, role[0].Name())
		}
		if err := detector.RestoreRole(r, role, p.shards.Part); err != nil {
			return err
		}
	}
	return r.Err()
}

// SnapshotLadder writes the mitigation engines' state — every shard's
// merged into the canonical block one engine holding all clients would
// write — and RestoreLadder distributes such a block over this pipeline's
// shards, whatever shard count wrote it. They are separate from Checkpoint
// so that its bytes are the same with and without Config.Mitigation, which
// both require; the pipeline must be idle.
func (p *Pipeline) SnapshotLadder(w *statecodec.Writer) { p.shards.SnapshotLadder(w) }

func (p *Pipeline) RestoreLadder(r *statecodec.Reader) error { return p.shards.RestoreLadder(r) }

// LadderCounts sums the engines' lifetime action tallies across shards.
func (p *Pipeline) LadderCounts() mitigate.ActionCounts { return p.shards.Counts() }
