package divscrape

// Cluster: the multi-node resilience plane. A Cluster node replicates
// runtime enforcement state — the mitigation ladders' digests — between
// httpguard instances (or scrapedetect followers) as periodic deltas,
// detects peer failure with a phi-accrual detector, routes clients over a
// consistent-hash ring that skips suspect and dead peers, and degrades
// explicitly (fail-open or fail-closed) when quorum is lost.
// httpguard.Guard implements ClusterBackend directly; `scrapedetect
// -follow -cluster-listen` is the assembled CLI form. See examples/cluster
// for a three-node walkthrough including a node kill and heal.

import (
	"net/http"
	"time"

	"divscrape/internal/cluster"
	"divscrape/internal/mitigate"
)

type (
	// Cluster is one member of the replication plane: it owns the delta
	// exchange, failure detection, degraded-mode policy and routing view
	// for a single local backend. Drive it with Tick and feed it peer
	// frames through Receive (or ClusterHandler over HTTP).
	Cluster = cluster.Node
	// ClusterConfig parameterises NewCluster. ID and the Peers entries
	// are transport addresses: with the HTTP transport a peer's ID is
	// dialled directly.
	ClusterConfig = cluster.Config
	// ClusterBackend is the local state a node replicates: the ladders.
	// Implemented by httpguard.Guard.
	ClusterBackend = cluster.Backend
	// ClusterStatus is a node's membership/replication snapshot, JSON-
	// ready for health endpoints.
	ClusterStatus = cluster.Status
	// ClusterPeerStatus is one peer's line in a ClusterStatus.
	ClusterPeerStatus = cluster.PeerStatus
	// ClusterEvent is one membership or degradation transition.
	ClusterEvent = cluster.Event
	// ClusterDegradedPolicy selects quorum-loss behaviour.
	ClusterDegradedPolicy = cluster.DegradedPolicy
	// ClusterTransport carries encoded delta frames between nodes.
	ClusterTransport = cluster.Transport
	// ClusterMemNetwork is an in-process transport with partitions,
	// per-link cuts and virtual-time delays — the harness the cluster's
	// own convergence proofs run on, exported for tests and demos.
	ClusterMemNetwork = cluster.MemNetwork
	// MitigationDigest is one client's replicable enforcement summary —
	// the unit ClusterBackend.LadderDigestsSince streams and deltas ship.
	MitigationDigest = mitigate.ClientDigest
)

// Quorum-loss policies for ClusterConfig.Degraded.
const (
	// ClusterFailOpen keeps enforcing on local state, unchanged.
	ClusterFailOpen = cluster.FailOpen
	// ClusterFailClosed additionally freezes ladder escalation until the
	// partition heals, so stale replicated state cannot push clients up
	// the ladder.
	ClusterFailClosed = cluster.FailClosed
)

// NewCluster validates the config and builds a node. The node is
// goroutine-free: call Tick on whatever cadence (and clock) suits the
// deployment.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// NewClusterHTTPTransport returns the production transport: deltas are
// POSTed to http://<peer>/cluster/delta with the given per-send timeout
// (zero selects 2s).
func NewClusterHTTPTransport(timeout time.Duration) ClusterTransport {
	return cluster.NewHTTPTransport(timeout)
}

// ClusterHandler serves a node's side of the delta exchange; mount it on
// the address the node's ID names.
func ClusterHandler(n *Cluster) http.Handler { return cluster.Handler(n) }

// NewClusterMemNetwork returns an empty in-process network; Attach each
// node, then deliver delayed frames with Pump.
func NewClusterMemNetwork() *ClusterMemNetwork { return cluster.NewMemNetwork() }
