package pipeline

import (
	"fmt"
	"time"

	"divscrape/internal/cluster"
	"divscrape/internal/iprep"
	"divscrape/internal/shard"
)

// ladderBackend is the pipeline's replicable state as the cluster plane
// sees it: the shards' ladders (shard.Set locks the owning shard round
// every engine call) and the reputation overlay, which is copy-on-write
// behind an atomic pointer and needs no lock.
type ladderBackend struct {
	shard.Set
	rep *iprep.DB
}

func (b ladderBackend) OverlayEntries(fn func(iprep.TempEntry)) { b.rep.TempEntries(fn) }

func (b ladderBackend) MergeOverlayEntry(e iprep.TempEntry) bool { return b.rep.MergeTemporary(e) }

// SessionDigestsSince is deliberately empty: detector session stores are
// replicated by the embedded guard only; a follower lets sessions rebuild
// from traffic after a failover.
func (ladderBackend) SessionDigestsSince(time.Time, func(cluster.SessionDigest)) {}

// ClusterBackend hands the pipeline's ladders and reputation overlay to
// the cluster plane. Peer merges then reach the engines from the plane's
// goroutines, so from this call on every judging step takes its shard's
// lock; call it before the run it is to replicate. It needs
// Config.Mitigation and Config.Reputation.
func (p *Pipeline) ClusterBackend() (cluster.Backend, error) {
	if p.cfg.Mitigation == nil || p.cfg.Reputation == nil {
		return nil, fmt.Errorf("pipeline: the cluster plane replicates mitigation and reputation state; configure both")
	}
	p.shared = true
	return ladderBackend{Set: p.shards, rep: p.cfg.Reputation}, nil
}
