package shard

import (
	"fmt"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/faultinject"
	"divscrape/internal/statecodec"
	"divscrape/internal/trace"
)

// The failure plane, the same for every host. A side that panics (its own
// bug, or its shard.inspect.<name> fault point) is quarantined, its state
// presumed corrupt and never touched again; after a backoff of event time
// the next request rebuilds it from its factory, warm if the host keeps
// restore points (RefreshLastGood): one side on one shard, never the process.

// maxBackoffFactor caps the doubling of a side's backoff on repeat panics.
const maxBackoffFactor = 32

// PanicError reports a side's panic: the side, shard, request and value.
type PanicError struct {
	Side  string
	Shard int
	Seq   uint64
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("detector %s panicked on shard %d at request %d: %v", e.Side, e.Shard, e.Seq, e.Value)
}

// Health is one side's failure-plane state, as a host reports it.
type Health struct {
	Quarantined bool      `json:"quarantined"`       // out of service after a panic
	Reason      string    `json:"reason,omitempty"`  // the panic value that quarantined it
	RetryAt     time.Time `json:"retry_at,omitzero"` // next restore attempt, while quarantined
	HasSnapshot bool      `json:"has_snapshot"`      // a restore point exists; without one it comes back cold
}

// sideHealth is Health plus the backoff and the last-good buffer.
type sideHealth struct {
	Health
	backoff time.Duration
	snapW   *statecodec.Writer
}

// Health reports side i's failure-plane state.
func (s *Shard) Health(i int) Health { return s.health[i].Health }

// Quarantined counts the sides out of service.
func (s *Shard) Quarantined() int { return s.sick }

// inspect runs the sides from i on behind one recover: it returns after a
// side that panicked, quarantined, and Judge resumes with the next. A
// quarantined side sits out unless its backoff has passed and it restores.
// While no side is quarantined and no fault point is armed — always, in
// production — the sides run with no per-side check at all.
func (s *Shard) inspect(req *detector.Request, out *Outcome, i int, ts *time.Time) (next int) {
	defer func() {
		if r := recover(); r != nil {
			out.Degraded = true
			s.quarantine(next, r, req)
			*ts = s.Tracer.LapDetector(next, *ts)
			next++
		}
	}()
	tr, checked := s.Tracer, s.sick > 0 || faultinject.Armed()
	for next = i; next < len(s.verdicts); next++ {
		// A side sitting out keeps the zero verdict and skipped mark from its
		// quarantine: per-request writes false-shared a line across shards.
		if checked && s.health[next].Quarantined && !s.restore(next, req.Entry.Time) {
			out.Degraded = true
		} else {
			if checked {
				if err := s.faults[next].Fire(); err != nil {
					panic(err)
				}
			}
			s.Dets[next].InspectInto(req, &s.verdicts[next])
		}
		if tr != nil {
			*ts = tr.LapDetector(next, *ts)
		}
	}
	return next
}

// quarantine takes side i out of service after a panic on req. Repeat
// panics double the backoff, so a persistently crashing side converges to
// a slow retry loop instead of a rebuild storm.
func (s *Shard) quarantine(i int, cause any, req *detector.Request) {
	h, now := &s.health[i], req.Entry.Time
	h.Quarantined, h.Reason = true, fmt.Sprint(cause)
	s.sick++
	if h.backoff <= 0 {
		h.backoff = s.Backoff
	} else if h.backoff < maxBackoffFactor*s.Backoff {
		h.backoff *= 2
	}
	h.RetryAt = now.Add(h.backoff)
	s.verdicts[i], s.skipped[i] = detector.Verdict{}, true
	s.notify(i, now, &PanicError{Side: s.Names[i], Shard: s.Index, Seq: req.Seq, Value: cause})
}

// restore rebuilds quarantined side i once its backoff has passed, from
// its last good snapshot if it has one that restores, cold otherwise. It
// fails (and pushes the retry out by one backoff) only if the factory does.
func (s *Shard) restore(i int, now time.Time) bool {
	h := &s.health[i]
	if now.Before(h.RetryAt) {
		return false
	}
	fresh, err := s.factories[i]()
	if err == nil && h.HasSnapshot &&
		detector.RestoreRole(statecodec.NewReader(h.snapW.Bytes()), []detector.Detector{fresh}, func(uint32) int { return 0 }) != nil {
		h.HasSnapshot = false
		fresh, err = s.factories[i]()
	}
	if err != nil {
		h.RetryAt = now.Add(h.backoff)
		return false
	}
	s.Dets[i], s.skipped[i] = fresh, false
	h.Quarantined, h.Reason, h.RetryAt = false, "", time.Time{}
	s.sick--
	s.notify(i, now, nil)
	return true
}

// RefreshLastGood re-snapshots every healthy side into its last-good
// buffer (the role-of-one block of detector.SnapshotRole), so a side that
// panics later restores to a state at most one refresh old; it also
// retires the side's backoff. A host that never calls it restores cold.
func (s *Shard) RefreshLastGood() {
	for i := range s.health {
		h := &s.health[i]
		if h.Quarantined {
			continue
		}
		w := h.snapW
		if w != nil {
			w.Reset()
			w.Fail(detector.SnapshotRole(w, s.Dets[i:i+1]))
		}
		// A writer four times the size of its payload last held a flood
		// that has since been evicted: write into a fresh one and let it
		// go (once — a fresh writer of a one-byte payload is oversized too).
		if w == nil || 4*w.Len() < cap(w.Bytes()) {
			w = statecodec.NewWriter()
			w.Fail(detector.SnapshotRole(w, s.Dets[i:i+1]))
		}
		h.snapW = w
		if h.HasSnapshot = w.Err() == nil; h.HasSnapshot {
			h.backoff = 0
		}
	}
}

// notify writes side i's quarantine by p, or restore, to the provenance
// events (an explain timeline shows what degraded a client's verdicts)
// and hands it to the host's observer.
func (s *Shard) notify(i int, at time.Time, p *PanicError) {
	kind := "restore"
	if p != nil {
		kind = "quarantine"
	}
	s.Tracer.Recorder().AddEvent(trace.Event{Time: at, Shard: s.Index, Kind: kind, Detector: s.Names[i], Detail: s.health[i].Reason})
	if s.OnHealth != nil {
		s.OnHealth(i, at, p)
	}
}
