package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"divscrape/internal/cluster"
	"divscrape/internal/trace"
)

// Cluster plane for follow mode: -cluster-listen turns one follower into
// a member of a replicated detection cluster. Each node keeps judging its
// own log locally and ships periodic state deltas — mitigation ladder
// digests — to its peers over HTTP, so a client split across nodes (or
// re-routed after a node failure) is met with the enforcement rung it
// already earned elsewhere. What replicates is the pipeline's shard set
// (pipeline.ClusterBackend: every shard's ladder behind that shard's
// lock). Detector session stores stay node-local and rebuild from
// traffic, and every node builds the same reputation feed for itself.

// degradedPolicyOf resolves the -cluster-degraded flag.
func degradedPolicyOf(name string) (cluster.DegradedPolicy, error) {
	switch name {
	case "", "fail-open":
		return cluster.FailOpen, nil
	case "fail-closed":
		return cluster.FailClosed, nil
	default:
		return 0, fmt.Errorf("invalid -cluster-degraded %q (want fail-open or fail-closed)", name)
	}
}

// splitPeers parses the -cluster-peers list, dropping empties and the
// node's own address (listing yourself is a config-templating artefact,
// not an error).
func splitPeers(list, self string) []string {
	var peers []string
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p != "" && p != self {
			peers = append(peers, p)
		}
	}
	return peers
}

// clusterTickEvery is the wall-clock cadence of the node's Tick loop —
// a quarter of the default delta interval, so failure detection and
// retry deadlines are observed promptly without busy-spinning.
const clusterTickEvery = 250 * time.Millisecond

// clusterSendTimeout is the per-exchange HTTP deadline — half the
// default 1s delta interval, so even a tick that blocks on a
// black-holed peer for the full timeout cannot push the heartbeat
// cadence past what the failure detector expects of this node.
const clusterSendTimeout = 500 * time.Millisecond

// warnWildcardListen flags the cluster-identity footgun: the listen
// string doubles as the node ID stamped into every outbound frame, and
// receivers look that ID up in their own -cluster-peers list. A
// wildcard or empty host (":8001", "0.0.0.0:8001") can never match the
// concrete host:port peers dial, so every frame this node sends would
// be dropped as from-unknown-peer on arrival — with nothing else at
// startup hinting at the misconfiguration.
func warnWildcardListen(listen string, logf func(string, ...any)) {
	host, _, err := net.SplitHostPort(listen)
	if err != nil {
		return // net.Listen will report the malformed address itself
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		logf("cluster: -cluster-listen %q has a wildcard host; the listen string is this node's ID, and peers drop frames from IDs missing from their -cluster-peers — use the concrete address peers dial (host:port)", listen)
	}
}

// clusterRuntime bundles what -cluster-listen starts: the node, the
// delta listener, and the tick loop driving it.
type clusterRuntime struct {
	node *cluster.Node
	srv  *http.Server
	addr net.Addr
	stop chan struct{}
	done chan struct{}
}

// startCluster stands the cluster plane up: a node identified by the
// listen address, an HTTP listener serving peer deltas, and a goroutine
// ticking the node on the wall clock. The listen string doubles as the
// node's identity — peers must name this node by exactly that string in
// their own -cluster-peers.
func startCluster(listen string, peers []string, pol cluster.DegradedPolicy,
	be cluster.Backend, rec *trace.Recorder, logf func(string, ...any)) (*clusterRuntime, error) {
	warnWildcardListen(listen, logf)
	node, err := cluster.New(cluster.Config{
		ID:        listen,
		Peers:     peers,
		Backend:   be,
		Transport: cluster.NewHTTPTransport(clusterSendTimeout),
		Degraded:  pol,
		Trace:     rec,
		OnEvent: func(ev cluster.Event) {
			logf("cluster: %s peer=%s %s", ev.Kind, ev.Peer, ev.Detail)
		},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("cluster listener: %w", err)
	}
	c := &clusterRuntime{
		node: node,
		srv:  &http.Server{Handler: cluster.Handler(node)},
		addr: ln.Addr(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() { _ = c.srv.Serve(ln) }()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(clusterTickEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case now := <-tick.C:
				c.node.Tick(now)
			}
		}
	}()
	return c, nil
}

// shutdown stops the tick loop and drains the delta server gracefully:
// an in-flight peer delta gets until the deadline to finish merging, then
// the listener is torn down hard.
func (c *clusterRuntime) shutdown() {
	close(c.stop)
	<-c.done
	shutdownServer(c.srv, debugShutdownTimeout)
}

// debugShutdownTimeout bounds how long exit waits for in-flight HTTP
// requests (a slow metrics scrape, a peer delta mid-merge) to complete.
const debugShutdownTimeout = 5 * time.Second

// shutdownServer drains srv gracefully: the listener closes immediately
// (no new connections), in-flight requests get until the deadline to
// complete, and only then is the server torn down hard.
func shutdownServer(srv *http.Server, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		_ = srv.Close()
	}
}
