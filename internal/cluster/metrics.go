package cluster

import "divscrape/internal/metrics"

// RegisterMetrics exposes the node's counters and gauges on reg, all
// labelled with the node ID. The func-backed instruments read the node's
// atomics at scrape time — registration costs nothing per request.
func (n *Node) RegisterMetrics(reg *metrics.Registry) {
	node := metrics.Label{Key: "node", Value: n.cfg.ID}
	reg.MustCounterFunc("divscrape_cluster_deltas_sent_total",
		"Delta frames delivered to peers.", n.deltasSent.Load, node)
	reg.MustCounterFunc("divscrape_cluster_deltas_retried_total",
		"Delta frame send retries.", n.deltasRetried.Load, node)
	reg.MustCounterFunc("divscrape_cluster_deltas_dropped_total",
		"Delta frames dropped after retry exhaustion.", n.deltasDropped.Load, node)
	reg.MustCounterFunc("divscrape_cluster_deltas_received_total",
		"Delta frames received and decoded.", n.deltasReceived.Load, node)
	reg.MustCounterFunc("divscrape_cluster_entries_applied_total",
		"Replicated entries merged into local state.", n.entriesApplied.Load, node)
	reg.MustCounterFunc("divscrape_cluster_entries_stale_total",
		"Replicated entries rejected as stale by merge rules.", n.entriesStale.Load, node)
	reg.MustCounterFunc("divscrape_cluster_bad_frames_total",
		"Frames rejected: decode failures or unknown senders.", n.badFrames.Load, node)
	reg.MustCounterFunc("divscrape_cluster_degraded_total",
		"Transitions into degraded (below-quorum) mode.", n.degradedCount.Load, node)
	reg.MustGaugeFunc("divscrape_cluster_peers_alive",
		"Peers the failure detector classifies alive.", n.peersAlive.Load, node)
	reg.MustGaugeFunc("divscrape_cluster_peers_suspect",
		"Peers the failure detector classifies suspect.", n.peersSuspect.Load, node)
	reg.MustGaugeFunc("divscrape_cluster_peers_dead",
		"Peers the failure detector classifies dead.", n.peersDead.Load, node)
	reg.MustGaugeFunc("divscrape_cluster_degraded",
		"1 while the node is below quorum.", func() int64 {
			if n.degradedGauge.Load() {
				return 1
			}
			return 0
		}, node)
	reg.MustGaugeFunc("divscrape_cluster_reconcile_lag_ns",
		"Staleness of the oldest reachable peer replica.", n.reconcileLagNs.Load, node)
}
