package shard

import (
	"fmt"
	"slices"
	"sync"
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
	// HasSnapshot reports a restore point: the side's snapshot at the last
	// RefreshLastGood, held zero-packed. The side comes back warm from it;
	// without one, or when it fails to unpack or restore (which clears
	// it), the side comes back cold.
	HasSnapshot bool `json:"has_snapshot"`
}

// sideHealth is Health plus the backoff and the restore point: the
// side's last good snapshot, packed, while HasSnapshot.
type sideHealth struct {
	Health
	backoff time.Duration
	point   []byte
}

// Health reports side i's failure-plane state.
func (s *Shard) Health(i int) Health { return s.health[i].Health }

// RestorePoint is side i's restore point, statecodec.Pack'ed, or nil
// without one. It is the shard's own: read it, never write it.
func (s *Shard) RestorePoint(i int) []byte { return s.health[i].point }

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

// restore rebuilds quarantined side i once its backoff has passed, as
// fresh would: warm from its restore point, cold when it has none or that
// does not unpack and restore, which also forgets the point. It fails (and
// pushes the retry out by one backoff) only if the factory does.
func (s *Shard) restore(i int, now time.Time) bool {
	h := &s.health[i]
	if now.Before(h.RetryAt) {
		return false
	}
	d, warm, err := s.fresh(i)
	if err != nil {
		h.RetryAt = now.Add(h.backoff)
		return false
	}
	if !warm {
		h.HasSnapshot, h.point = false, nil
	}
	s.Dets[i], s.skipped[i] = d, false
	h.Quarantined, h.Reason, h.RetryAt = false, "", time.Time{}
	s.sick--
	s.notify(i, now, nil)
	return true
}

// fresh builds side i from its factory and restores it from its restore
// point, if it has one that unpacks and restores (warm); otherwise it
// builds it again, cold. It leaves the shard as it was.
func (s *Shard) fresh(i int) (d detector.Detector, warm bool, err error) {
	if d, err = s.factories[i](); err != nil || s.health[i].point == nil {
		return d, false, err
	}
	raw, err := statecodec.Unpack(nil, s.health[i].point)
	if err == nil {
		err = detector.RestoreRole(statecodec.NewReader(raw), []detector.Detector{d}, func(uint32) int { return 0 })
	}
	if err == nil {
		return d, true, nil
	}
	d, err = s.factories[i]()
	return d, false, err
}

// asRestored is the shard's sides as a host should write them: a
// quarantined side's instance is presumed corrupt, so in its place stands
// a fresh one, as its restore would leave it — warm from its restore
// point, or cold. The shard's own sides are not replaced: the quarantine
// runs its course. It fails only if a factory does.
func (s *Shard) asRestored() ([]detector.Detector, error) {
	if s.sick == 0 {
		return s.Dets, nil
	}
	dets := slices.Clone(s.Dets)
	for i := range dets {
		if s.health[i].Quarantined {
			d, _, err := s.fresh(i)
			if err != nil {
				return nil, fmt.Errorf("shard %d: rebuild quarantined %s: %w", s.Index, s.Names[i], err)
			}
			dets[i] = d
		}
	}
	return dets, nil
}

// refreshScratch is what a refresh encodes and packs in; pooled, so no
// shard keeps a buffer the size of its largest snapshot between refreshes.
type refreshScratch struct {
	w      statecodec.Writer
	packed []byte
}

var refreshPool = sync.Pool{New: func() any { return new(refreshScratch) }}

// RefreshLastGood re-snapshots every healthy side (the role-of-one block
// of detector.SnapshotRole) into its restore point, packed
// (statecodec.Pack) and held in a slice of exactly its size, so a side
// that panics later restores to a state at most one refresh old; it also
// retires the side's backoff. A host that never calls it restores cold.
func (s *Shard) RefreshLastGood() {
	sc := refreshPool.Get().(*refreshScratch)
	defer refreshPool.Put(sc)
	for i := range s.health {
		h := &s.health[i]
		if h.Quarantined {
			continue
		}
		sc.w.Reset()
		sc.w.Fail(detector.SnapshotRole(&sc.w, s.Dets[i:i+1]))
		if h.HasSnapshot = sc.w.Err() == nil; !h.HasSnapshot {
			h.point = nil
			continue
		}
		// Copied into a slice made to size: an append to nil would round
		// its capacity up to the allocator's next size class.
		sc.packed = statecodec.Pack(sc.packed[:0], sc.w.Bytes())
		h.point = make([]byte, len(sc.packed))
		copy(h.point, sc.packed)
		h.backoff = 0
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
