package httpguard

import (
	"context"
	"fmt"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/faultinject"
	"divscrape/internal/statecodec"
	"divscrape/internal/trace"
)

// The guard's failure plane. Three mechanisms keep a production guard
// serving through the failures the offline toolkit never sees:
//
//   - Panic isolation: a detector that panics mid-inspect is caught at
//     the shard boundary, quarantined, and rebuilt from its last good
//     snapshot after a backoff — one faulty state machine costs one
//     detector on one shard for a bounded time, never the process.
//   - Degraded-mode policy: what the guard does while it cannot fully
//     judge a request is an explicit, configured choice (FailOpen /
//     FailClosed), surfaced in metrics and the health endpoint —
//     never a silent default an adversary can probe for.
//   - Admission control: a per-shard in-flight bound sheds excess
//     requests to the degraded policy before queueing on the shard
//     lock collapses latency for everyone.
//
// All failure-plane bookkeeping is driven by the guard's injected
// clock (request event time), so quarantine backoff is deterministic
// under test and no code path here ever sleeps.

// fiClock is the chaos suite's clock-skew point on the guard's time
// source; the panics and stalls it injects into a detector's inspect path
// go through that side's own point (side.fault).
var fiClock = faultinject.At("httpguard.clock")

// DegradedMode selects what the guard does with a request it cannot
// fully judge — one shed by admission control, or inspected while a
// detector is quarantined.
type DegradedMode int

const (
	// FailOpen serves degraded requests with whatever detection
	// remains (possibly none), keeping the site up at the price of
	// letting scrapers through while degraded. The default.
	FailOpen DegradedMode = iota
	// FailClosed refuses degraded requests with 503 until the guard is
	// whole again, keeping detection authoritative at the price of
	// availability.
	FailClosed
)

// String returns the mode's stable name.
func (m DegradedMode) String() string {
	if m == FailClosed {
		return "fail-closed"
	}
	return "fail-open"
}

// DegradedEvent describes one failure-plane transition, delivered to
// Config.OnDegraded.
type DegradedEvent struct {
	// Shard is the affected shard's index at event time.
	Shard int
	// Detector names the affected detector slot.
	Detector string
	// Kind is "quarantine" or "restore".
	Kind string
	// Reason carries the panic value for quarantines.
	Reason string
	// At is the event time (the guard's clock).
	At time.Time
}

// detectorHealth is one shard-side's failure-plane state. Guarded by
// the shard mutex, except the counters, which metrics read lock-free.
type detectorHealth struct {
	quarantined bool
	reason      string        // panic value of the quarantining failure
	backoff     time.Duration // current restore backoff
	retryAt     time.Time     // when a restore may next be attempted
	hasGood     bool          // snapW holds a restorable snapshot
	snapW       *statecodec.Writer
}

// maxQuarantineBackoffFactor caps the per-repeat-panic doubling of the
// restore backoff.
const maxQuarantineBackoffFactor = 32

// runDetector is the shard's barrier round side i (shard.Shard.Barrier):
// it runs the side's detector behind the panic barrier, attempting a
// quarantined side's restore first when its backoff has elapsed, and
// reports whether a verdict was produced in v. A panic — the detector's
// own or an injected one — quarantines the side; the request is still
// answered under the degraded policy. Caller holds the shard mutex.
func (s *guardShard) runDetector(i int, req *detector.Request, v *detector.Verdict) (ok bool) {
	now := req.Entry.Time
	if h := &s.health[i]; h.quarantined && (now.Before(h.retryAt) || !s.restoreDetector(i, now)) {
		return false
	}
	defer func() {
		if r := recover(); r != nil {
			s.quarantine(i, r, now)
			ok = false
		}
	}()
	if err := s.g.sides[i].fault.Fire(); err != nil {
		panic(err)
	}
	s.Dets[i].InspectInto(req, v)
	return true
}

// quarantine takes one detector side out of service after a panic. The
// side's state machine is presumed corrupt and is never touched again;
// restoreDetector rebuilds a fresh instance from the last good
// snapshot once the backoff elapses. Repeat panics (a failure that
// survives restore) double the backoff up to 32× the configured base,
// so a persistently crashing detector converges to a slow retry loop
// instead of a rebuild storm. Caller holds the shard mutex.
func (s *guardShard) quarantine(i int, cause any, now time.Time) {
	g, h := s.g, &s.health[i]
	h.quarantined = true
	h.reason = fmt.Sprint(cause)
	if h.backoff <= 0 {
		h.backoff = g.cfg.QuarantineBackoff
	} else if h.backoff < maxQuarantineBackoffFactor*g.cfg.QuarantineBackoff {
		h.backoff *= 2
	}
	h.retryAt = now.Add(h.backoff)
	g.panics[i].Add(1)
	g.notifyDegraded(DegradedEvent{
		Shard:    s.index,
		Detector: g.sides[i].name,
		Kind:     "quarantine",
		Reason:   h.reason,
		At:       now,
	})
}

// restoreDetector rebuilds a quarantined side: a fresh detector from the
// side's factory, restored from the shard's last good snapshot when one
// exists. A snapshot that fails to restore is discarded and the side
// comes back cold — session memory lost, but serving. Returns false (and
// pushes the retry out by one backoff) only if the detector cannot even
// be constructed. Caller holds the shard mutex.
func (s *guardShard) restoreDetector(i int, now time.Time) bool {
	g, h := s.g, &s.health[i]
	fresh, err := g.sides[i].factory()
	if err == nil && h.hasGood {
		role := []detector.Detector{fresh}
		if detector.RestoreRole(statecodec.NewReader(h.snapW.Bytes()), role, func(uint32) int { return 0 }) != nil {
			h.hasGood = false
			fresh, err = g.sides[i].factory()
		}
	}
	if err != nil {
		h.retryAt = now.Add(h.backoff)
		return false
	}
	s.Dets[i] = fresh
	h.quarantined = false
	h.reason = ""
	g.restores[i].Add(1)
	g.notifyDegraded(DegradedEvent{
		Shard:    s.index,
		Detector: g.sides[i].name,
		Kind:     "restore",
		At:       now,
	})
	return true
}

// refreshLastGood re-snapshots a healthy side into the shard's
// last-good buffer — the role-of-one block of detector.SnapshotRole.
// Runs in the shard's periodic sweep slot, so a quarantined side restores
// to a state at most one sweep interval old. Surviving to a snapshot
// point also retires the side's backoff: the detector has proven itself
// stable again. Caller holds the shard mutex.
func (s *guardShard) refreshLastGood(i int) {
	h := &s.health[i]
	if h.quarantined {
		return
	}
	w := h.snapW
	if w == nil {
		w = statecodec.NewWriter()
	}
	w.Reset()
	w.Fail(detector.SnapshotRole(w, s.Dets[i:i+1]))
	// A writer four times the size of its payload last held a flood that
	// has since been evicted: write into a fresh one and let it go. Once
	// only — a fresh writer of a one-byte payload is oversized too.
	if 4*w.Len() < cap(w.Bytes()) {
		w = statecodec.NewWriter()
		w.Fail(detector.SnapshotRole(w, s.Dets[i:i+1]))
	}
	h.snapW = w
	if h.hasGood = w.Err() == nil; h.hasGood {
		h.backoff = 0
	}
}

// notifyDegraded delivers a failure-plane transition to the configured
// observer and, when tracing is on, to the flight recorder's provenance
// event ring (so an explain timeline shows the quarantine that degraded
// a client's verdicts). Called under the shard mutex — the callback must
// not call back into the guard; the recorder mutex is a leaf.
func (g *Guard) notifyDegraded(ev DegradedEvent) {
	if g.trace != nil {
		g.trace.Recorder().AddEvent(trace.Event{
			Time:     ev.At,
			Shard:    ev.Shard,
			Kind:     ev.Kind,
			Detector: ev.Detector,
			Detail:   ev.Reason,
		})
	}
	if g.cfg.OnDegraded != nil {
		g.cfg.OnDegraded(ev)
	}
}

// tarpit stalls the response for d. The stall observes the request
// context: a client that disconnects mid-tarpit releases its goroutine
// immediately instead of pinning it for the full delay — otherwise a
// scraper could hold-and-drop connections to exhaust the server the
// tarpit is defending. An injected Config.Sleep (tests, benchmarks)
// bypasses the context plumbing.
func (g *Guard) tarpit(ctx context.Context, d time.Duration) {
	if g.cfg.Sleep != nil {
		g.cfg.Sleep(d)
		return
	}
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
