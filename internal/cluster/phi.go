package cluster

import "time"

// Phi-accrual-style failure detection. Each peer's heartbeat arrivals
// (any frame counts — an empty delta is a heartbeat) feed an
// exponentially weighted estimate of its inter-arrival time; the
// suspicion level phi is how many expected intervals have elapsed since
// the last arrival. Unlike a fixed timeout, the scale adapts to each
// peer's observed cadence: a peer that has always been slow needs to go
// quiet for longer before it is suspected, while a fast peer's silence
// is noticed within a few of its own intervals.
//
// The detector never reads the wall clock: every method takes now from
// the caller, so the cluster tests drive suspect → dead transitions on a
// simulated clock, the same determinism discipline as the engines and
// detectors.

// PeerState classifies a peer's liveness.
type PeerState uint8

const (
	// Alive: heartbeats arriving within expectation.
	Alive PeerState = iota
	// Suspect: quiet past the suspect threshold; routing starts avoiding
	// the peer but its state is retained.
	Suspect
	// Dead: quiet past the dead threshold; ownership re-partitions away
	// and a later heartbeat triggers anti-entropy reconciliation.
	Dead
)

var peerStateNames = [...]string{"alive", "suspect", "dead"}

// String returns the state's stable lower-case name.
func (s PeerState) String() string {
	if int(s) < len(peerStateNames) {
		return peerStateNames[s]
	}
	return "invalid"
}

// Phi thresholds. Phi is elapsed-time over expected-interval, so 4 means
// "quiet for four times its usual gap" — late, worth avoiding — and 8
// means the peer is gone for practical purposes.
const (
	defaultSuspectPhi = 4.0
	defaultDeadPhi    = 8.0
	// ewmaAlpha is the weight of the newest interval sample.
	ewmaAlpha = 0.2
	// minInterval floors the estimate so a burst of back-to-back frames
	// cannot collapse the expected interval toward zero and flap the
	// peer suspect on the next ordinary gap.
	minInterval = 10 * time.Millisecond
)

// peerClock is one peer's arrival history.
type peerClock struct {
	last     time.Time
	interval time.Duration // EWMA of inter-arrival gaps
	seen     bool
}

// FailureDetector tracks heartbeat arrivals for a peer set. Not safe for
// concurrent use; the owning Node serialises access.
type FailureDetector struct {
	suspectPhi float64
	deadPhi    float64
	expected   time.Duration // seed interval before samples accumulate
	peers      map[string]*peerClock
}

// NewFailureDetector builds a detector seeded with the expected
// heartbeat interval (the cluster's delta cadence). suspectPhi and
// deadPhi zero take the defaults.
func NewFailureDetector(expected time.Duration, suspectPhi, deadPhi float64) *FailureDetector {
	if expected <= 0 {
		expected = time.Second
	}
	if suspectPhi <= 0 {
		suspectPhi = defaultSuspectPhi
	}
	if deadPhi <= suspectPhi {
		deadPhi = max(defaultDeadPhi, suspectPhi*2)
	}
	return &FailureDetector{
		suspectPhi: suspectPhi,
		deadPhi:    deadPhi,
		expected:   expected,
		peers:      make(map[string]*peerClock),
	}
}

// Register seeds a peer at now, as if a heartbeat had just arrived: a
// freshly joined peer gets a full expected interval of grace before phi
// starts accruing.
func (fd *FailureDetector) Register(id string, now time.Time) {
	fd.peers[id] = &peerClock{last: now, interval: fd.expected, seen: true}
}

// Heartbeat records an arrival from id at now.
func (fd *FailureDetector) Heartbeat(id string, now time.Time) {
	p := fd.peers[id]
	if p == nil {
		fd.Register(id, now)
		return
	}
	gap := now.Sub(p.last)
	if gap < minInterval {
		gap = minInterval
	}
	p.interval = time.Duration((1-ewmaAlpha)*float64(p.interval) + ewmaAlpha*float64(gap))
	if p.interval < minInterval {
		p.interval = minInterval
	}
	p.last = now
}

// Phi returns the peer's suspicion level at now: elapsed time since its
// last heartbeat in units of its expected interval. Unknown peers are
// maximally suspect.
func (fd *FailureDetector) Phi(id string, now time.Time) float64 {
	p := fd.peers[id]
	if p == nil || !p.seen {
		return fd.deadPhi + 1
	}
	elapsed := now.Sub(p.last)
	if elapsed <= 0 {
		return 0
	}
	return float64(elapsed) / float64(p.interval)
}

// State classifies the peer at now against the phi thresholds.
func (fd *FailureDetector) State(id string, now time.Time) PeerState {
	phi := fd.Phi(id, now)
	switch {
	case phi >= fd.deadPhi:
		return Dead
	case phi >= fd.suspectPhi:
		return Suspect
	default:
		return Alive
	}
}

// LastHeard returns the peer's last heartbeat time (zero when unknown).
func (fd *FailureDetector) LastHeard(id string) time.Time {
	if p := fd.peers[id]; p != nil {
		return p.last
	}
	return time.Time{}
}
