package cluster_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"divscrape/internal/cluster"
	"divscrape/internal/mitigate"
	"divscrape/internal/statecodec"
)

// memBackend is a minimal in-memory state plane with the same merge
// semantics as the real ones: last-writer-wins ladders.
type memBackend struct {
	mu      sync.Mutex
	ladders map[string]mitigate.ClientDigest
	frozen  bool
	freezes int
}

func newMemBackend() *memBackend {
	return &memBackend{ladders: make(map[string]mitigate.ClientDigest)}
}

func (b *memBackend) LadderDigestsSince(since time.Time, fn func(mitigate.ClientDigest)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, d := range b.ladders {
		if !d.LastSeen.Before(since) {
			fn(d)
		}
	}
}

func (b *memBackend) MergeLadderDigest(d mitigate.ClientDigest) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur, ok := b.ladders[d.Key]
	if ok && !d.LastSeen.After(cur.LastSeen) {
		return false
	}
	b.ladders[d.Key] = d
	return true
}

func (b *memBackend) SetEscalationFrozen(frozen bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.frozen = frozen
	if frozen {
		b.freezes++
	}
}

func (b *memBackend) isFrozen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.frozen
}

func (b *memBackend) ladder(key string) (mitigate.ClientDigest, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.ladders[key]
	return d, ok
}

func (b *memBackend) touch(key string, level mitigate.Action, at time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ladders[key] = mitigate.ClientDigest{Key: key, Level: level, LastSeen: at}
}

// simClock is the injected cluster clock.
type simClock struct {
	mu sync.Mutex
	t  time.Time
}

func newSimClock() *simClock {
	return &simClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *simClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *simClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

// failTransport fails every send and records when each was attempted.
type failTransport struct {
	mu       sync.Mutex
	clock    *simClock
	base     time.Time
	attempts []time.Duration
}

func (t *failTransport) Send(string, []byte) error {
	t.mu.Lock()
	t.attempts = append(t.attempts, t.clock.Now().Sub(t.base))
	t.mu.Unlock()
	return errors.New("injected send failure")
}

func TestNodeRetryBackoffJitteredSchedule(t *testing.T) {
	clock := newSimClock()
	tr := &failTransport{clock: clock, base: clock.Now()}
	n, err := cluster.New(cluster.Config{
		ID:             "a",
		Peers:          []string{"b"},
		Backend:        newMemBackend(),
		Transport:      tr,
		Now:            clock.Now,
		Rand:           func() float64 { return 0.25 }, // jitter factor 0.9 exactly
		DeltaInterval:  100 * time.Millisecond,
		SendRetries:    3,
		SendBackoff:    10 * time.Millisecond,
		MaxSendBackoff: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tick every millisecond for one delta interval. The frame is built
	// and attempted at t=0; with Rand pinned at 0.25 and Jitter 0.2 every
	// backoff is scaled by 0.9: 10ms→9, 20ms→18, 40ms (capped)→36.
	n.Tick(clock.Now())
	for i := 0; i < 99; i++ {
		n.Tick(clock.Advance(time.Millisecond))
	}
	want := []time.Duration{0, 9 * time.Millisecond, 27 * time.Millisecond, 63 * time.Millisecond}
	tr.mu.Lock()
	got := append([]time.Duration(nil), tr.attempts...)
	tr.mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("attempts %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("attempt %d at %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	s := n.Status()
	if s.DeltasRetried != 3 || s.DeltasDropped != 1 || s.DeltasSent != 0 {
		t.Fatalf("retried %d dropped %d sent %d, want 3/1/0",
			s.DeltasRetried, s.DeltasDropped, s.DeltasSent)
	}
	// The next cadence builds a fresh frame covering the dropped window.
	n.Tick(clock.Advance(time.Millisecond))
	tr.mu.Lock()
	count := len(tr.attempts)
	last := tr.attempts[count-1]
	tr.mu.Unlock()
	if count != 5 || last != 100*time.Millisecond {
		t.Fatalf("after drop: %d attempts, last at %v", count, last)
	}
}

// cliqueHarness builds K nodes on a MemNetwork sharing one clock.
type cliqueHarness struct {
	clock    *simClock
	net      *cluster.MemNetwork
	nodes    map[string]*cluster.Node
	backends map[string]*memBackend
	events   *eventLog
	downed   map[string]bool
}

type eventLog struct {
	mu     sync.Mutex
	events []cluster.Event
}

func (l *eventLog) add(ev cluster.Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *eventLog) kinds(node string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, ev := range l.events {
		out = append(out, ev.Kind)
	}
	return out
}

func (l *eventLog) has(kind string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ev := range l.events {
		if ev.Kind == kind {
			return true
		}
	}
	return false
}

func newClique(t *testing.T, ids []string, policy func(id string) cluster.DegradedPolicy) *cliqueHarness {
	t.Helper()
	h := &cliqueHarness{
		clock:    newSimClock(),
		net:      cluster.NewMemNetwork(),
		nodes:    make(map[string]*cluster.Node),
		backends: make(map[string]*memBackend),
		events:   &eventLog{},
		downed:   make(map[string]bool),
	}
	// The MemNetwork endpoint needs the node and the node needs a
	// transport at construction — a forwarding shim breaks the cycle.
	for _, id := range ids {
		h.backends[id] = newMemBackend()
	}
	for _, id := range ids {
		peers := make([]string, 0, len(ids)-1)
		for _, p := range ids {
			if p != id {
				peers = append(peers, p)
			}
		}
		pol := cluster.FailOpen
		if policy != nil {
			pol = policy(id)
		}
		shim := &lateTransport{}
		n, err := cluster.New(cluster.Config{
			ID:            id,
			Peers:         peers,
			Backend:       h.backends[id],
			Transport:     shim,
			Now:           h.clock.Now,
			Rand:          func() float64 { return 0.5 },
			DeltaInterval: 100 * time.Millisecond,
			SendRetries:   2,
			SendBackoff:   20 * time.Millisecond,
			Degraded:      pol,
			OnEvent:       h.events.add,
		})
		if err != nil {
			t.Fatal(err)
		}
		shim.set(h.net.Attach(n))
		h.nodes[id] = n
	}
	return h
}

// lateTransport lets the node be constructed before its network endpoint
// exists.
type lateTransport struct {
	mu sync.Mutex
	t  cluster.Transport
}

func (l *lateTransport) set(t cluster.Transport) {
	l.mu.Lock()
	l.t = t
	l.mu.Unlock()
}

func (l *lateTransport) Send(to string, frame []byte) error {
	l.mu.Lock()
	t := l.t
	l.mu.Unlock()
	if t == nil {
		return errors.New("transport not attached")
	}
	return t.Send(to, frame)
}

// step advances the clock by d and ticks every live node, pumping
// delayed frames.
func (h *cliqueHarness) step(d time.Duration) {
	now := h.clock.Advance(d)
	h.net.Pump(now)
	for id, n := range h.nodes {
		if !h.downed[id] {
			n.Tick(now)
		}
	}
}

// run steps the clique count times at d per step.
func (h *cliqueHarness) run(count int, d time.Duration) {
	for i := 0; i < count; i++ {
		h.step(d)
	}
}

func (h *cliqueHarness) kill(id string) {
	h.downed[id] = true
	h.net.Down(id)
}

func (h *cliqueHarness) revive(id string) {
	delete(h.downed, id)
	h.net.Up(id)
}

// Ladders replicate from every origin: each node's clients reach both
// of the others.
func TestClusterReplicatesLadders(t *testing.T) {
	h := newClique(t, []string{"a", "b", "c"}, nil)
	base := h.clock.Now()
	h.backends["a"].touch("203.0.113.7", mitigate.Block, base)
	h.backends["b"].touch("198.51.100.9", mitigate.Tarpit, base)
	h.run(10, 50*time.Millisecond)
	for _, id := range []string{"b", "c"} {
		if d, ok := h.backends[id].ladder("203.0.113.7"); !ok || d.Level != mitigate.Block {
			t.Fatalf("node %s missing replicated ladder: %+v ok=%v", id, d, ok)
		}
	}
	for _, id := range []string{"a", "c"} {
		if d, ok := h.backends[id].ladder("198.51.100.9"); !ok || d.Level != mitigate.Tarpit {
			t.Fatalf("node %s missing replicated ladder: %+v ok=%v", id, d, ok)
		}
	}
}

// Backend stamps live in their own time domain — in follow mode they
// are log event times that systematically lag the node's wall clock
// (startup backlog, tailing lag). The delta cursor must track what was
// actually shipped, not the node clock: a watermark advanced to a
// build time would exclude every later change stamped before it, and
// replication would silently stop after the first full frame.
func TestClusterConvergesWhenBackendStampsLagClock(t *testing.T) {
	h := newClique(t, []string{"a", "b", "c"}, nil)
	lag := 2 * time.Minute // event time trails the cluster clock
	h.backends["a"].touch("203.0.113.10", mitigate.Tarpit, h.clock.Now().Add(-lag))
	h.run(10, 50*time.Millisecond)
	for _, id := range []string{"b", "c"} {
		if d, ok := h.backends[id].ladder("203.0.113.10"); !ok || d.Level != mitigate.Tarpit {
			t.Fatalf("node %s missing first lagged ladder: %+v ok=%v", id, d, ok)
		}
	}
	// Changes after the first delivered frame, still stamped far behind
	// the clock: a new client, and an escalation of the existing one.
	h.backends["a"].touch("198.51.100.20", mitigate.Challenge, h.clock.Now().Add(-lag))
	h.run(10, 50*time.Millisecond)
	h.backends["a"].touch("203.0.113.10", mitigate.Block, h.clock.Now().Add(-lag))
	h.run(10, 50*time.Millisecond)
	for _, id := range []string{"b", "c"} {
		if d, ok := h.backends[id].ladder("198.51.100.20"); !ok || d.Level != mitigate.Challenge {
			t.Fatalf("node %s never saw post-first-frame lagged client: %+v ok=%v", id, d, ok)
		}
		if d, ok := h.backends[id].ladder("203.0.113.10"); !ok || d.Level != mitigate.Block {
			t.Fatalf("node %s missing lagged escalation: %+v ok=%v", id, d, ok)
		}
	}
}

// stallTransport blocks sends to the peers in stall until released and
// reports each blocked send the moment it starts.
type stallTransport struct {
	stall   map[string]bool
	blocked chan string
	release chan struct{}
}

func (t *stallTransport) Send(to string, _ []byte) error {
	if t.stall[to] {
		t.blocked <- to
		<-t.release
		return errors.New("injected timeout")
	}
	return nil
}

func TestTickDispatchesSendsConcurrently(t *testing.T) {
	clock := newSimClock()
	tr := &stallTransport{
		stall:   map[string]bool{"b": true, "c": true},
		blocked: make(chan string, 2),
		release: make(chan struct{}),
	}
	n, err := cluster.New(cluster.Config{
		ID: "a", Peers: []string{"b", "c", "d"}, Backend: newMemBackend(),
		Transport: tr, Now: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { n.Tick(clock.Now()); close(done) }()
	// Both stalled sends must be in flight at once: sequential dispatch
	// can only ever have one blocked, with every later peer's heartbeat
	// starved behind it for the transport timeout.
	for i := 0; i < 2; i++ {
		select {
		case <-tr.blocked:
		case <-time.After(5 * time.Second):
			t.Fatal("sends dispatched sequentially: second stalled peer never started")
		}
	}
	close(tr.release)
	<-done
	if s := n.Status(); s.DeltasSent != 1 || s.DeltasRetried != 2 {
		t.Fatalf("sent %d retried %d, want 1/2", s.DeltasSent, s.DeltasRetried)
	}
}

func TestClusterKillSuspectDeadReviveReconciles(t *testing.T) {
	h := newClique(t, []string{"a", "b", "c"}, nil)
	h.run(5, 100*time.Millisecond) // establish heartbeats
	h.kill("c")
	// Route failover: within a few intervals a and b avoid c.
	h.run(12, 100*time.Millisecond)
	if !h.events.has(cluster.EventPeerSuspect) || !h.events.has(cluster.EventPeerDead) {
		t.Fatalf("no suspect/dead transitions: %v", h.events.kinds("a"))
	}
	sa := h.nodes["a"].Status()
	var cState string
	for _, p := range sa.Peers {
		if p.ID == "c" {
			cState = p.State
		}
	}
	if cState != "dead" {
		t.Fatalf("a sees c as %q, want dead", cState)
	}
	// Ownership moved off c while it is down.
	for ip := uint32(1); ip < 200; ip++ {
		owner, _ := h.nodes["a"].Route(ip)
		if owner == "c" {
			t.Fatalf("ip %d still routed to dead node c", ip)
		}
	}
	// State written while c was down reaches it after revival.
	h.backends["a"].touch("192.0.2.50", mitigate.Challenge, h.clock.Now())
	h.revive("c")
	h.run(15, 100*time.Millisecond)
	if !h.events.has(cluster.EventPeerAlive) {
		t.Fatalf("no peer-alive after revival: %v", h.events.kinds("a"))
	}
	if d, ok := h.backends["c"].ladder("192.0.2.50"); !ok || d.Level != mitigate.Challenge {
		t.Fatalf("revived c missing anti-entropy state: %+v ok=%v", d, ok)
	}
	// And routing flows back.
	routedC := false
	for ip := uint32(1); ip < 500; ip++ {
		if owner, _ := h.nodes["a"].Route(ip); owner == "c" {
			routedC = true
			break
		}
	}
	if !routedC {
		t.Fatalf("no client routes to revived c")
	}
}

func TestClusterPartitionFailClosedFreezesUntilHeal(t *testing.T) {
	h := newClique(t, []string{"a", "b", "c"}, func(id string) cluster.DegradedPolicy {
		if id == "c" {
			return cluster.FailClosed
		}
		return cluster.FailOpen
	})
	h.run(5, 100*time.Millisecond)
	h.net.Isolate("c")
	h.run(12, 100*time.Millisecond)
	if !h.nodes["c"].Degraded() {
		t.Fatalf("isolated c not degraded: %+v", h.nodes["c"].Status())
	}
	if !h.backends["c"].isFrozen() {
		t.Fatalf("fail-closed c did not freeze escalation")
	}
	if !h.events.has(cluster.EventDegraded) {
		t.Fatalf("no degraded event: %v", h.events.kinds("c"))
	}
	// The majority side keeps quorum and never freezes.
	if h.nodes["a"].Degraded() || h.backends["a"].isFrozen() {
		t.Fatalf("majority node a degraded")
	}
	// State diverges during the partition; heal reconciles both ways.
	mid := h.clock.Now()
	h.backends["a"].touch("203.0.113.77", mitigate.Block, mid)
	h.backends["c"].touch("198.51.100.88", mitigate.Tarpit, mid)
	h.net.HealAll()
	h.run(15, 100*time.Millisecond)
	if h.nodes["c"].Degraded() || h.backends["c"].isFrozen() {
		t.Fatalf("c still degraded/frozen after heal: %+v", h.nodes["c"].Status())
	}
	if !h.events.has(cluster.EventHeal) {
		t.Fatalf("no heal event: %v", h.events.kinds("c"))
	}
	if d, ok := h.backends["c"].ladder("203.0.113.77"); !ok || d.Level != mitigate.Block {
		t.Fatalf("c missing majority-side state after heal: %+v ok=%v", d, ok)
	}
	if d, ok := h.backends["a"].ladder("198.51.100.88"); !ok || d.Level != mitigate.Tarpit {
		t.Fatalf("a missing minority-side state after heal: %+v ok=%v", d, ok)
	}
}

func TestNodeReceiveRejectsHostileFrames(t *testing.T) {
	clock := newSimClock()
	n, err := cluster.New(cluster.Config{
		ID: "a", Peers: []string{"b"}, Backend: newMemBackend(),
		Transport: &failTransport{clock: clock, base: clock.Now()},
		Now:       clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Receive([]byte("not a frame at all")); err == nil {
		t.Fatalf("garbage accepted")
	} else if !errors.Is(err, statecodec.ErrBadMagic) && !statecodec.Damaged(err) {
		t.Fatalf("garbage error untyped: %v", err)
	}
	// A well-formed frame from a non-member is dropped.
	stranger := &cluster.Delta{From: "mallory", Seq: 1, Kind: cluster.DeltaFull}
	frame, err := stranger.EncodeFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Receive(frame); err == nil {
		t.Fatalf("unknown-peer frame accepted")
	}
	if s := n.Status(); s.BadFrames != 2 {
		t.Fatalf("bad frames = %d, want 2", s.BadFrames)
	}
}
