// Package cluster scales the guard plane past one process: N detector
// nodes behind a consistent-hash router exchange periodic state deltas —
// the mitigation-ladder digests that changed — as statecodec frames, so a
// scraper that rotates its traffic across the fleet still meets one
// coherent escalation ladder instead of N fresh ones. The ladders are all
// that replicates: the reputation feed is a fixed input every node builds
// for itself, and detector sessions rebuild from each node's own traffic.
//
// The robustness machinery is the point, not an afterthought:
//
//   - Every peer exchange gets a deadline (the transport's) plus
//     capped-exponential retry with jitter, through the same injectable
//     Sleep/Now/Rand discipline as internal/checkpoint — except nothing
//     here ever sleeps: retries are scheduled against the injected clock
//     and fire on later Ticks, so the whole plane is deterministic under
//     a simulated clock.
//   - A phi-accrual-style failure detector (phi.go) turns heartbeat
//     silence into suspect → dead transitions; routing walks the ring
//     past non-alive nodes, so a killed node's clients fail over without
//     dropping a request.
//   - A per-node degraded policy governs quorum loss: the node keeps
//     deciding on local state, flags the transition as cluster-degraded
//     on the flight-recorder timeline, and under FailClosed freezes
//     ladder escalation (mitigate.SetEscalationFrozen) — decisions made
//     on state known to be stale must not convict anyone. On heal the
//     node unfreezes and anti-entropy reconciles by exchanging
//     full-state frames, whose last-writer-wins merges converge without
//     any further protocol.
//
// A Node is tick-driven and goroutine-free: call Tick on a cadence (the
// CLI runs a ticker; tests drive simulated time), Receive from the
// transport. All Backend calls happen outside the node lock's critical
// sends, and the node never blocks a request path — routing is a
// lock-guarded ring lookup, allocation-free.
package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"divscrape/internal/mitigate"
	"divscrape/internal/trace"
)

// Backend is the replicable state plane a node replicates: the ladders of
// a shard.Set, served by httpguard.Guard under its topology lock and by
// scrapedetect's follow pipeline directly. Merge methods must be safe to
// call concurrently with the serving path (implementations take their
// own locks) and must be idempotent — the transport redelivers.
type Backend interface {
	// LadderDigestsSince streams mitigation-ladder digests for clients
	// active at or after since (zero = full state).
	LadderDigestsSince(since time.Time, fn func(mitigate.ClientDigest))
	// MergeLadderDigest folds a replicated digest in (last-writer-wins);
	// reports whether it was applied.
	MergeLadderDigest(d mitigate.ClientDigest) bool
	// SetEscalationFrozen switches ladder escalation off (and back on) —
	// the fail-closed degraded response to quorum loss.
	SetEscalationFrozen(frozen bool)
}

// DegradedPolicy selects what a node does while it cannot reach a quorum
// of peers — the cluster face of httpguard's fail-open/fail-closed
// semantics.
type DegradedPolicy uint8

const (
	// FailOpen keeps enforcing on local state unchanged: detection
	// continues, escalation continues, replication catches up on heal.
	FailOpen DegradedPolicy = iota
	// FailClosed keeps deciding on local state but freezes ladder
	// escalation until quorum returns: a minority node must not convict
	// clients on evidence it knows is partial.
	FailClosed
)

// String returns the policy's stable name.
func (p DegradedPolicy) String() string {
	if p == FailClosed {
		return "fail-closed"
	}
	return "fail-open"
}

// Event kinds emitted onto the flight-recorder timeline and OnEvent.
const (
	EventPeerSuspect = "cluster-peer-suspect"
	EventPeerDead    = "cluster-peer-dead"
	EventPeerAlive   = "cluster-peer-alive"
	EventDegraded    = "cluster-degraded"
	EventHeal        = "cluster-heal"
)

// Event is one membership or degradation transition.
type Event struct {
	// Time is the node clock when the transition was observed.
	Time time.Time
	// Kind is one of the Event* constants.
	Kind string
	// Peer names the peer involved (empty for node-level events).
	Peer string
	// Detail is a human-readable elaboration.
	Detail string
}

// Config parameterises a Node.
type Config struct {
	// ID is this node's cluster-unique identifier (the HTTP transport
	// uses listen addresses as IDs). Required.
	ID string
	// Peers lists the other nodes' IDs.
	Peers []string
	// Backend is the replicable state plane. Required.
	Backend Backend
	// Transport moves frames to peers. Required.
	Transport Transport
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
	// Rand is the jitter source in [0,1), injectable and seedable like
	// Now; defaults to math/rand.Float64.
	Rand func() float64
	// DeltaInterval is the cadence of delta frames (doubling as the
	// heartbeat interval — an empty delta is a heartbeat). Default 1s.
	DeltaInterval time.Duration
	// SuspectPhi and DeadPhi are the failure-detector thresholds; zero
	// takes the documented defaults (4 and 8 expected intervals).
	SuspectPhi, DeadPhi float64
	// Degraded selects the quorum-loss behaviour. Default FailOpen.
	Degraded DegradedPolicy
	// Quorum is the minimum live node count (self included) to stay out
	// of degraded mode; zero selects a strict majority of the full
	// membership.
	Quorum int
	// SendRetries is how many retry attempts one frame gets after its
	// first failed send before being dropped (the next frame re-covers
	// its window). Default 4.
	SendRetries int
	// SendBackoff is the pause before the first retry; it doubles per
	// attempt. Default 100ms.
	SendBackoff time.Duration
	// MaxSendBackoff caps the doubling. Default 2s.
	MaxSendBackoff time.Duration
	// Jitter spreads each backoff pause by ±this fraction so fleet-wide
	// retries do not synchronise; zero selects 0.2, negative disables.
	Jitter float64
	// Trace, when non-nil, receives membership and degradation events on
	// the flight-recorder timeline.
	Trace *trace.Recorder
	// OnEvent, if set, observes every membership/degradation transition.
	// Called synchronously under the node lock: keep it fast and never
	// call back into the node.
	OnEvent func(Event)
}

// peerLink is the per-peer replication state: the acknowledged
// watermark, the pending frame with its retry schedule, and the last
// classified liveness for transition detection.
type peerLink struct {
	id string
	// watermark is the since-cursor delta builds resume from, kept in
	// the backend's own stamp domain: the newest LastSeen actually
	// shipped in a delivered frame. Backend stamps are event time in
	// follow mode (log entry timestamps that systematically lag the
	// node's wall clock), so the cursor must never touch the node
	// clock — advancing it to a build time would permanently exclude
	// state stamped earlier than the build but applied later. The
	// DigestsSince streams are inclusive at the boundary, so a stamp
	// equal to the watermark re-ships (merges are idempotent) rather
	// than falling in the gap. Zero forces a full-state frame.
	watermark time.Time
	// pending is the encoded frame awaiting (re)send; builtAt is its
	// node-clock build identity, frameMark the watermark a successful
	// delivery advances to (the newest backend stamp in the frame).
	pending   []byte
	builtAt   time.Time
	frameMark time.Time
	// attempts counts failed sends of the pending frame; nextTry and
	// backoff schedule the retry against the injected clock.
	attempts int
	backoff  time.Duration
	nextTry  time.Time
	// state is the last classified liveness, for edge-triggered events.
	state PeerState
	// lastApplied is the sender stamp of the newest frame merged from
	// this peer — the replica freshness behind the reconcile-lag gauge.
	lastApplied time.Time
}

// Node is one cluster member. Construct with New; drive with Tick and
// Receive. Safe for concurrent use.
type Node struct {
	cfg Config

	mu        sync.Mutex
	fd        *FailureDetector
	peers     map[string]*peerLink
	ring      *Ring
	avoid     map[string]bool // peers routed around (suspect or dead)
	skipFn    func(string) bool
	seq       uint64
	started   bool
	lastBuild time.Time
	degrade   bool

	// Lock-free observability surface (metrics.go reads these).
	deltasSent     atomic.Uint64
	deltasRetried  atomic.Uint64
	deltasDropped  atomic.Uint64
	deltasReceived atomic.Uint64
	entriesApplied atomic.Uint64
	entriesStale   atomic.Uint64
	badFrames      atomic.Uint64
	degradedCount  atomic.Uint64
	peersAlive     atomic.Int64
	peersSuspect   atomic.Int64
	peersDead      atomic.Int64
	degradedGauge  atomic.Bool
	reconcileLagNs atomic.Int64
}

// New validates cfg and builds a node. The node is passive until the
// caller starts ticking it.
func New(cfg Config) (*Node, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: node needs an ID")
	}
	if cfg.Backend == nil {
		return nil, fmt.Errorf("cluster: node needs a Backend")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("cluster: node needs a Transport")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Float64
	}
	if cfg.DeltaInterval <= 0 {
		cfg.DeltaInterval = time.Second
	}
	if cfg.SendRetries <= 0 {
		cfg.SendRetries = 4
	}
	if cfg.SendBackoff <= 0 {
		cfg.SendBackoff = 100 * time.Millisecond
	}
	if cfg.MaxSendBackoff <= 0 {
		cfg.MaxSendBackoff = 2 * time.Second
	}
	switch {
	case cfg.Jitter == 0:
		cfg.Jitter = 0.2
	case cfg.Jitter < 0:
		cfg.Jitter = 0
	}
	n := &Node{
		cfg:   cfg,
		fd:    NewFailureDetector(cfg.DeltaInterval, cfg.SuspectPhi, cfg.DeadPhi),
		peers: make(map[string]*peerLink),
		avoid: make(map[string]bool),
	}
	// The skip predicate is allocated once: routing must stay
	// allocation-free on the request path.
	n.skipFn = func(id string) bool { return n.avoid[id] }
	for _, p := range cfg.Peers {
		if p != "" && p != cfg.ID {
			n.peers[p] = &peerLink{id: p}
		}
	}
	members := make([]string, 0, len(n.peers)+1)
	members = append(members, cfg.ID)
	for id := range n.peers {
		members = append(members, id)
	}
	n.ring = NewRing(members)
	return n, nil
}

// ID returns the node's cluster identifier.
func (n *Node) ID() string { return n.cfg.ID }

// Now returns the node's clock reading.
func (n *Node) Now() time.Time { return n.cfg.Now() }

// Degraded reports whether the node is currently below quorum.
func (n *Node) Degraded() bool { return n.degradedGauge.Load() }

// quorum returns the live-node floor: the configured value, or a strict
// majority of the full membership.
func (n *Node) quorum() int {
	if n.cfg.Quorum > 0 {
		return n.cfg.Quorum
	}
	return (len(n.peers)+1)/2 + 1
}

// Route returns the node that owns ip, walking the ring past peers the
// failure detector is avoiding (suspect or dead). fellBack reports that
// the primary owner was skipped. Allocation-free.
func (n *Node) Route(ip uint32) (owner string, fellBack bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring.OwnerSkip(ip, n.skipFn)
}

// emitLocked publishes a transition event to the trace timeline and the
// OnEvent observer. Caller holds n.mu.
func (n *Node) emitLocked(ev Event) {
	if n.cfg.Trace != nil {
		n.cfg.Trace.AddEvent(trace.Event{
			Time:   ev.Time,
			Kind:   ev.Kind,
			Client: ev.Peer,
			Detail: ev.Detail,
		})
	}
	if n.cfg.OnEvent != nil {
		n.cfg.OnEvent(ev)
	}
}

// Tick advances the node to now: classifies peers, manages the degraded
// state, builds due delta frames and runs the send/retry schedule. Call
// on a cadence of roughly DeltaInterval/4 or finer so retries and phi
// transitions land promptly; Tick is cheap when nothing is due.
func (n *Node) Tick(now time.Time) {
	n.mu.Lock()
	if !n.started {
		n.started = true
		for id := range n.peers {
			n.fd.Register(id, now)
		}
	}
	n.classifyPeersLocked(now)
	n.updateDegradedLocked(now)
	n.buildFramesLocked(now)
	jobs := n.dueSendsLocked(now)
	n.updateLagLocked(now)
	n.mu.Unlock()

	if len(jobs) == 0 {
		return
	}
	// Sends run outside the node lock — a synchronous in-process
	// transport delivers straight into the peer's Receive, which takes
	// the peer's lock, so holding ours across that invites deadlock —
	// and concurrently across peers: one black-holed (non-refusing)
	// peer must cost at most one transport timeout per tick, not one
	// per later peer in the slice, or it starves heartbeats to healthy
	// peers until they falsely suspect this node. Tick still joins all
	// sends before settling so the retry schedule stays deterministic
	// under an injected clock.
	results := make([]error, len(jobs))
	if len(jobs) == 1 {
		results[0] = n.cfg.Transport.Send(jobs[0].to, jobs[0].frame)
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, maxConcurrentSends)
		for i := range jobs {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				results[i] = n.cfg.Transport.Send(jobs[i].to, jobs[i].frame)
				<-sem
			}(i)
		}
		wg.Wait()
	}
	n.mu.Lock()
	for i, j := range jobs {
		n.settleSendLocked(j, results[i], now)
	}
	n.mu.Unlock()
}

// classifyPeersLocked refreshes every peer's liveness, emits transition
// events, maintains the routing avoid-set and schedules anti-entropy for
// peers coming back from the dead.
func (n *Node) classifyPeersLocked(now time.Time) {
	var alive, suspect, dead int64
	for id, link := range n.peers {
		st := n.fd.State(id, now)
		if st != link.state {
			switch st {
			case Suspect:
				n.emitLocked(Event{Time: now, Kind: EventPeerSuspect, Peer: id,
					Detail: fmt.Sprintf("phi %.1f", n.fd.Phi(id, now))})
			case Dead:
				n.emitLocked(Event{Time: now, Kind: EventPeerDead, Peer: id,
					Detail: fmt.Sprintf("phi %.1f", n.fd.Phi(id, now))})
			case Alive:
				n.emitLocked(Event{Time: now, Kind: EventPeerAlive, Peer: id,
					Detail: "heartbeats resumed"})
				// The peer missed an unknown window: reconcile by
				// scheduling a fresh full-state frame.
				link.watermark = time.Time{}
				link.pending = nil
				link.attempts = 0
			}
			link.state = st
		}
		switch st {
		case Alive:
			alive++
			delete(n.avoid, id)
		case Suspect:
			suspect++
			n.avoid[id] = true
		case Dead:
			dead++
			n.avoid[id] = true
		}
	}
	n.peersAlive.Store(alive)
	n.peersSuspect.Store(suspect)
	n.peersDead.Store(dead)
}

// updateDegradedLocked applies the quorum rule: self plus every peer not
// classified Dead counts as reachable membership.
func (n *Node) updateDegradedLocked(now time.Time) {
	reachable := 1 + int(n.peersAlive.Load()) + int(n.peersSuspect.Load())
	below := reachable < n.quorum()
	if below == n.degrade {
		return
	}
	n.degrade = below
	n.degradedGauge.Store(below)
	if below {
		n.degradedCount.Add(1)
		n.emitLocked(Event{Time: now, Kind: EventDegraded,
			Detail: fmt.Sprintf("%d of %d nodes reachable, quorum %d, policy %s",
				reachable, len(n.peers)+1, n.quorum(), n.cfg.Degraded)})
		if n.cfg.Degraded == FailClosed {
			n.cfg.Backend.SetEscalationFrozen(true)
		}
		return
	}
	n.emitLocked(Event{Time: now, Kind: EventHeal,
		Detail: fmt.Sprintf("%d of %d nodes reachable", reachable, len(n.peers)+1)})
	if n.cfg.Degraded == FailClosed {
		n.cfg.Backend.SetEscalationFrozen(false)
	}
	// Anti-entropy on heal: everything the node decided alone must reach
	// the peers (and vice versa — their frames arrive by symmetry), so
	// every link restarts from a full-state frame.
	for _, link := range n.peers {
		link.watermark = time.Time{}
		link.pending = nil
		link.attempts = 0
	}
}

// buildFramesLocked builds one delta per peer when the cadence is due.
// A peer still retrying its previous frame keeps it: the watermark only
// advances on delivery, so the next build after a drop re-covers the
// whole missed window — redelivery is free because merges are
// idempotent.
func (n *Node) buildFramesLocked(now time.Time) {
	due := false
	for _, link := range n.peers {
		if link.pending == nil {
			due = true
			break
		}
	}
	if !due || len(n.peers) == 0 {
		return
	}
	// Cadence: first build fires immediately (the join heartbeat), then
	// every DeltaInterval.
	if !n.lastBuildDueLocked(now) {
		return
	}
	n.seq++
	for _, link := range n.peers {
		if link.pending != nil {
			continue
		}
		frame, mark, err := n.encodeDeltaLocked(link, now)
		if err != nil {
			// An unserialisable backend is a programming error surfaced
			// by tests; skip the frame rather than wedging the link.
			continue
		}
		link.pending = frame
		link.builtAt = now
		link.frameMark = mark
		link.attempts = 0
		link.backoff = n.cfg.SendBackoff
		link.nextTry = now
	}
	n.lastBuild = now
}

// encodeDeltaLocked builds the frame for one peer from its watermark.
// The returned mark is the newest backend stamp included — what the
// watermark advances to once this frame is delivered. It stays in the
// backend's time domain (never the node clock): an empty frame leaves
// the cursor where it was, and a frame carrying state moves it exactly
// to the edge of what was shipped.
func (n *Node) encodeDeltaLocked(link *peerLink, now time.Time) ([]byte, time.Time, error) {
	d := &Delta{
		From:         n.cfg.ID,
		Seq:          n.seq,
		SentUnixNano: now.UnixNano(),
		Kind:         DeltaIncremental,
	}
	if link.watermark.IsZero() {
		d.Kind = DeltaFull
	}
	mark := link.watermark
	n.cfg.Backend.LadderDigestsSince(link.watermark, func(cd mitigate.ClientDigest) {
		d.Ladders = append(d.Ladders, cd)
		if cd.LastSeen.After(mark) {
			mark = cd.LastSeen
		}
	})
	frame, err := d.EncodeFrame()
	return frame, mark, err
}

// maxConcurrentSends bounds the per-tick send fan-out: enough that no
// realistic peer count serialises behind a stuck transport call, small
// enough that a large membership cannot spawn a goroutine storm.
const maxConcurrentSends = 16

// sendJob is one due frame transmission, executed outside the lock.
type sendJob struct {
	to      string
	frame   []byte
	builtAt time.Time
}

// dueSendsLocked collects the frames whose (re)try time has arrived.
func (n *Node) dueSendsLocked(now time.Time) []sendJob {
	var jobs []sendJob
	for _, link := range n.peers {
		if link.pending != nil && !now.Before(link.nextTry) {
			jobs = append(jobs, sendJob{to: link.id, frame: link.pending, builtAt: link.builtAt})
		}
	}
	return jobs
}

// settleSendLocked folds one send outcome back into the link: success
// advances the watermark; failure schedules a jittered capped-exponential
// retry, and exhaustion drops the frame (the next build re-covers its
// window from the unchanged watermark).
func (n *Node) settleSendLocked(j sendJob, err error, now time.Time) {
	link := n.peers[j.to]
	if link.builtAt != j.builtAt || link.pending == nil {
		return // the frame changed underneath the send
	}
	if err == nil {
		link.pending = nil
		link.watermark = link.frameMark
		n.deltasSent.Add(1)
		return
	}
	link.attempts++
	if link.attempts > n.cfg.SendRetries {
		link.pending = nil
		n.deltasDropped.Add(1)
		return
	}
	n.deltasRetried.Add(1)
	link.nextTry = now.Add(n.jitter(link.backoff))
	if link.backoff *= 2; link.backoff > n.cfg.MaxSendBackoff {
		link.backoff = n.cfg.MaxSendBackoff
	}
}

// jitter spreads d by ±cfg.Jitter using the injected source.
func (n *Node) jitter(d time.Duration) time.Duration {
	j := n.cfg.Jitter
	if j <= 0 {
		return d
	}
	return time.Duration(float64(d) * (1 - j + 2*j*n.cfg.Rand()))
}

// updateLagLocked refreshes the reconcile-lag gauge: the staleness of
// the oldest replica among reachable peers.
func (n *Node) updateLagLocked(now time.Time) {
	var lag time.Duration
	for _, link := range n.peers {
		if link.state == Dead {
			continue
		}
		if link.lastApplied.IsZero() {
			continue
		}
		if l := now.Sub(link.lastApplied); l > lag {
			lag = l
		}
	}
	n.reconcileLagNs.Store(int64(lag))
}

// Receive decodes and merges one frame from a peer. Any frame — however
// empty — is a heartbeat. Hostile or torn frames fail with the codec's
// typed errors and are counted, never merged, and never panic. Frames
// from unknown senders are counted and dropped.
func (n *Node) Receive(frame []byte) error {
	d, err := DecodeFrame(frame)
	if err != nil {
		n.badFrames.Add(1)
		return err
	}
	now := n.cfg.Now()
	n.mu.Lock()
	link := n.peers[d.From]
	if link == nil {
		n.mu.Unlock()
		n.badFrames.Add(1)
		return fmt.Errorf("cluster: frame from unknown peer %q", d.From)
	}
	n.fd.Heartbeat(d.From, now)
	sent := time.Unix(0, d.SentUnixNano)
	if sent.After(link.lastApplied) {
		link.lastApplied = sent
	}
	n.mu.Unlock()

	// Merges run outside the node lock: the backend serialises itself,
	// and a merge storm must not stall ticks or routing.
	n.deltasReceived.Add(1)
	var applied, stale uint64
	for _, l := range d.Ladders {
		if n.cfg.Backend.MergeLadderDigest(l) {
			applied++
		} else {
			stale++
		}
	}
	n.entriesApplied.Add(applied)
	n.entriesStale.Add(stale)
	return nil
}

// lastBuild tracking: the node builds at most one delta wave per
// DeltaInterval.
func (n *Node) lastBuildDueLocked(now time.Time) bool {
	if n.lastBuild.IsZero() {
		return true
	}
	return now.Sub(n.lastBuild) >= n.cfg.DeltaInterval
}

// PeerStatus is one peer's liveness and replication state as reported by
// Status.
type PeerStatus struct {
	ID          string        `json:"id"`
	State       string        `json:"state"`
	Phi         float64       `json:"phi"`
	LastHeard   time.Time     `json:"last_heard"`
	LastApplied time.Time     `json:"last_applied,omitzero"`
	Watermark   time.Time     `json:"watermark,omitzero"`
	Pending     bool          `json:"pending"`
	Attempts    int           `json:"attempts,omitempty"`
	Backoff     time.Duration `json:"-"`
}

// Status is a point-in-time snapshot of the node's cluster health,
// rendered into /debug/divscrape/health.
type Status struct {
	ID             string        `json:"id"`
	Policy         string        `json:"degraded_policy"`
	Degraded       bool          `json:"degraded"`
	Quorum         int           `json:"quorum"`
	Reachable      int           `json:"reachable"`
	Members        int           `json:"members"`
	Peers          []PeerStatus  `json:"peers"`
	DeltasSent     uint64        `json:"deltas_sent"`
	DeltasRetried  uint64        `json:"deltas_retried"`
	DeltasDropped  uint64        `json:"deltas_dropped"`
	DeltasReceived uint64        `json:"deltas_received"`
	EntriesApplied uint64        `json:"entries_applied"`
	EntriesStale   uint64        `json:"entries_stale"`
	BadFrames      uint64        `json:"bad_frames"`
	ReconcileLag   time.Duration `json:"reconcile_lag_ns"`
}

// Status snapshots the node at its clock's now.
func (n *Node) Status() Status {
	now := n.cfg.Now()
	n.mu.Lock()
	s := Status{
		ID:             n.cfg.ID,
		Policy:         n.cfg.Degraded.String(),
		Degraded:       n.degrade,
		Quorum:         n.quorum(),
		Members:        len(n.peers) + 1,
		DeltasSent:     n.deltasSent.Load(),
		DeltasRetried:  n.deltasRetried.Load(),
		DeltasDropped:  n.deltasDropped.Load(),
		DeltasReceived: n.deltasReceived.Load(),
		EntriesApplied: n.entriesApplied.Load(),
		EntriesStale:   n.entriesStale.Load(),
		BadFrames:      n.badFrames.Load(),
		ReconcileLag:   time.Duration(n.reconcileLagNs.Load()),
	}
	s.Reachable = 1
	s.Peers = make([]PeerStatus, 0, len(n.peers))
	for id, link := range n.peers {
		st := n.fd.State(id, now)
		if st != Dead {
			s.Reachable++
		}
		s.Peers = append(s.Peers, PeerStatus{
			ID:          id,
			State:       st.String(),
			Phi:         n.fd.Phi(id, now),
			LastHeard:   n.fd.LastHeard(id),
			LastApplied: link.lastApplied,
			Watermark:   link.watermark,
			Pending:     link.pending != nil,
			Attempts:    link.attempts,
			Backoff:     link.backoff,
		})
	}
	n.mu.Unlock()
	sortPeerStatus(s.Peers)
	return s
}

func sortPeerStatus(ps []PeerStatus) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].ID < ps[j-1].ID; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}
