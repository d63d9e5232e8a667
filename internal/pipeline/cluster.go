package pipeline

import (
	"fmt"

	"divscrape/internal/cluster"
)

// ClusterBackend hands the pipeline's ladders to the cluster plane: the
// shard set itself, which locks the owning shard round every engine call.
// Peer merges then reach the engines from the plane's goroutines, so from
// this call on every judging step takes its shard's lock; call it before
// the run it is to replicate. It needs Config.Mitigation.
func (p *Pipeline) ClusterBackend() (cluster.Backend, error) {
	if p.cfg.Mitigation == nil {
		return nil, fmt.Errorf("pipeline: the cluster plane replicates mitigation state; configure it")
	}
	p.shared = true
	return p.shards, nil
}
