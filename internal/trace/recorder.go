package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/ensemble"
	"divscrape/internal/mitigate"
)

// SampleKind says why a decision was captured into the flight recorder.
type SampleKind uint8

const (
	// SampleNone: not captured.
	SampleNone SampleKind = iota
	// SampleHead: one of the first RecorderConfig.Head decisions, kept
	// forever (the stream's opening is where warmup bugs live).
	SampleHead
	// SampleRate: every RecorderConfig.Rate-th decision, the steady-state
	// cross-section.
	SampleRate
	// SampleEscalation: the mitigation rung increased — always captured,
	// because an escalation is exactly the decision an operator will be
	// asked to justify.
	SampleEscalation
	// SampleClient: the client is explicitly watched
	// (RecorderConfig.Clients / -explain).
	SampleClient
)

var sampleNames = [...]string{"", "head", "rate", "escalation", "client"}

// String returns the kind's wire name ("" for SampleNone).
func (k SampleKind) String() string {
	if int(k) < len(sampleNames) {
		return sampleNames[k]
	}
	return "sample(?)"
}

// Feature is one named feature value from a detector's vector snapshot.
type Feature struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// DetectorRecord is one detector's contribution to a decision record.
type DetectorRecord struct {
	Detector string `json:"detector"`
	// Skipped marks a detector that did not judge this request (it was
	// quarantined by the failure plane); Alert/Score are then the degraded
	// defaults, not a verdict.
	Skipped  bool      `json:"skipped,omitempty"`
	Alert    bool      `json:"alert"`
	Score    float64   `json:"score"`
	Reasons  []string  `json:"reasons,omitempty"`
	Features []Feature `json:"features,omitempty"`
}

// DetectorRecordOf builds one detector's record from its verdict and,
// when the detector implements detector.Explainer and produced a vector
// for this request, its feature snapshot. ex may be nil.
func DetectorRecordOf(name string, v *detector.Verdict, ex detector.Explainer) DetectorRecord {
	dr := DetectorRecord{Detector: name, Alert: v.Alert, Score: v.Score, Reasons: v.Reasons.Strings()}
	if ex != nil {
		if vals, ok := ex.LastFeatures(); ok {
			names := ex.FeatureNames()
			dr.Features = make([]Feature, len(vals))
			for i := range vals {
				dr.Features[i] = Feature{Name: names[i], Value: vals[i]}
			}
		}
	}
	return dr
}

// Record is one complete captured decision: everything needed to answer
// "why did the system do that to this client". All slices are owned by
// the record (capture copies out of pooled hot-path storage).
type Record struct {
	// Seq is the request's stream sequence number.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Client is the decision key (client IP).
	Client string `json:"client"`
	// Sampled names the capture cause: head, rate, escalation or client.
	Sampled   string           `json:"sampled"`
	Detectors []DetectorRecord `json:"detectors"`
	// Alerted / Confirmed are the ensemble's any / strict-majority votes
	// (ensemble.Assess).
	Alerted   bool `json:"alerted"`
	Confirmed bool `json:"confirmed"`
	// Action is the mitigation decision ("" when no engine is attached);
	// RungBefore/RungAfter are the client's ladder rung around it.
	Action     string  `json:"action,omitempty"`
	RungBefore string  `json:"rung_before,omitempty"`
	RungAfter  string  `json:"rung_after,omitempty"`
	Suspicion  float64 `json:"suspicion"`
}

// Event is one provenance event outside the per-decision flow: detector
// quarantine/restore from the failure plane, checkpoint cuts, watchdog
// trips. Client is empty for system-wide events.
type Event struct {
	Time     time.Time `json:"time"`
	Client   string    `json:"client,omitempty"`
	Shard    int       `json:"shard"`
	Kind     string    `json:"kind"`
	Detector string    `json:"detector,omitempty"`
	Detail   string    `json:"detail,omitempty"`
}

// Timeline is the full provenance view for one client: its captured
// decision records in stream order plus the provenance events that frame
// them (system-wide events included — a quarantine explains a degraded
// verdict even though it names no client).
type Timeline struct {
	Client  string   `json:"client"`
	Records []Record `json:"records"`
	Events  []Event  `json:"events"`
}

// RecorderConfig bounds and steers the flight recorder. The zero value
// takes every default.
type RecorderConfig struct {
	// Capacity is the record ring size (default 1024). Once full, new
	// captures overwrite the oldest.
	Capacity int
	// Head preserves the first Head sampled-stream decisions outside the
	// ring (default 64; negative disables head sampling).
	Head int
	// Rate captures every Rate-th decision (default 256; negative
	// disables rate sampling). Sampling is a deterministic counter, not a
	// coin flip, so identical streams capture identical records.
	Rate int
	// Clients are always-capture client keys (the -explain targets).
	Clients []string
	// Events is the provenance event ring size (default 256).
	Events int
	// Sink, when set, receives every captured record — the JSONL audit
	// stream behind scrapedetect -trace-out. It is invoked under the
	// recorder mutex, in capture order; keep it fast (buffered writer).
	Sink func(Record)
}

const (
	defaultCapacity = 1024
	defaultHead     = 64
	defaultRate     = 256
	defaultEvents   = 256
)

// Recorder is the bounded decision flight recorder. The unsampled path
// is one atomic increment (Sample); only actual captures take the mutex.
// A nil *Recorder is safe: it samples nothing and stores nothing.
type Recorder struct {
	capacity int
	headN    int
	rate     int
	clients  []string
	sink     func(Record)

	seen       atomic.Uint64 // decisions offered to Sample
	captured   atomic.Uint64 // records stored
	overwrites atomic.Uint64 // ring slots overwritten before read
	eventCount atomic.Uint64

	mu       sync.Mutex
	head     []Record
	ring     []Record
	ringNext int // next overwrite index once len(ring) == capacity
	events   []Event
	evNext   int
}

func newRecorder(cfg RecorderConfig) *Recorder {
	r := &Recorder{
		capacity: cfg.Capacity,
		headN:    cfg.Head,
		rate:     cfg.Rate,
		clients:  append([]string(nil), cfg.Clients...),
		sink:     cfg.Sink,
	}
	if r.capacity <= 0 {
		r.capacity = defaultCapacity
	}
	switch {
	case r.headN == 0:
		r.headN = defaultHead
	case r.headN < 0:
		r.headN = 0
	}
	switch {
	case r.rate == 0:
		r.rate = defaultRate
	case r.rate < 0:
		r.rate = 0
	}
	evCap := cfg.Events
	if evCap <= 0 {
		evCap = defaultEvents
	}
	r.events = make([]Event, 0, evCap)
	return r
}

// Sample counts one decision and says whether the head/rate policy
// selects it. Capture overrides the result for escalations
// (SampleEscalation) and watched clients (WantClient → SampleClient);
// the unsampled fast path stays one atomic add.
func (r *Recorder) Sample() SampleKind {
	if r == nil {
		return SampleNone
	}
	n := r.seen.Add(1)
	if n <= uint64(r.headN) {
		return SampleHead
	}
	if r.rate > 0 && n%uint64(r.rate) == 0 {
		return SampleRate
	}
	return SampleNone
}

// WantClient reports whether client is on the always-capture list.
func (r *Recorder) WantClient(client string) bool {
	if r == nil {
		return false
	}
	for _, c := range r.clients {
		if c == client {
			return true
		}
	}
	return false
}

// Judged is one judged request as the decision step (internal/shard)
// offers it to the recorder. The slices align
// index for index with the host's detector list and are only read during
// Capture.
type Judged struct {
	Req      *detector.Request
	Names    []string
	Verdicts []detector.Verdict
	// Detectors are the instances that produced Verdicts, asked for their
	// feature vectors through detector.Explainer. Nil when the caller is no
	// longer synchronous with their scratch (the ordered delivery's
	// emitter): records then carry verdicts and reasons only.
	Detectors []detector.Detector
	// Skipped marks sides that sat out (quarantined); nil means none did.
	Skipped []bool
	// Ladder is the mitigation outcome and RungBefore the client's rung
	// before it; nil when no engine judged the request — none attached, the
	// challenge flow's own requests, a fail-closed refusal — and the record
	// then carries no ladder fields.
	Ladder     *mitigate.Decision
	RungBefore mitigate.Action
}

// Capture offers one judged request to the recorder: it is kept when the
// ladder rung rose, when the client is watched, or when the head/rate
// sampler selects it — the record names the first of those that holds —
// and then copied out of the host's reusable storage into a complete
// Record.
func (r *Recorder) Capture(j *Judged) {
	kind := r.Sample()
	client := j.Req.Entry.RemoteAddr
	// A cause that is the request's own outranks the sampler's: head and
	// rate depend on how many decisions were offered first, which under
	// per-shard delivery is the scheduler's doing, and a watched client's
	// timeline must read the same however the stream was delivered.
	switch {
	case j.Ladder != nil && j.Ladder.Level > j.RungBefore:
		kind = SampleEscalation
	case r.WantClient(client):
		kind = SampleClient
	case kind == SampleNone:
		return
	}
	vote := ensemble.Assess(j.Verdicts)
	rec := Record{
		Seq:       j.Req.Seq,
		Time:      j.Req.Entry.Time,
		Client:    client,
		Sampled:   kind.String(),
		Detectors: make([]DetectorRecord, len(j.Verdicts)),
		Alerted:   vote.Alerted,
		Confirmed: vote.Confirmed,
		Suspicion: vote.Score,
	}
	if j.Ladder != nil {
		rec.Action = j.Ladder.Action.String()
		rec.RungBefore = j.RungBefore.String()
		rec.RungAfter = j.Ladder.Level.String()
		rec.Suspicion = j.Ladder.Score
	}
	for i := range j.Verdicts {
		// A side that did not run contributes no features and is marked
		// skipped — its zero verdict is the degraded default, not a
		// judgement.
		skipped := j.Skipped != nil && j.Skipped[i]
		var ex detector.Explainer
		if !skipped && j.Detectors != nil {
			ex, _ = j.Detectors[i].(detector.Explainer)
		}
		rec.Detectors[i] = DetectorRecordOf(j.Names[i], &j.Verdicts[i], ex)
		rec.Detectors[i].Skipped = skipped
	}
	r.Add(rec)
}

// Add stores a captured record. rec.Sampled must be set (records with an
// empty cause are dropped); head-sampled records go to the preserved
// head slice while it has room, everything else to the overwrite ring.
func (r *Recorder) Add(rec Record) {
	if r == nil || rec.Sampled == "" {
		return
	}
	r.captured.Add(1)
	r.mu.Lock()
	if rec.Sampled == sampleNames[SampleHead] && len(r.head) < r.headN {
		r.head = append(r.head, rec)
	} else if len(r.ring) < r.capacity {
		r.ring = append(r.ring, rec)
	} else {
		r.overwrites.Add(1)
		r.ring[r.ringNext] = rec
		r.ringNext = (r.ringNext + 1) % r.capacity
	}
	if r.sink != nil {
		r.sink(rec)
	}
	r.mu.Unlock()
}

// AddEvent records a provenance event into the bounded event ring.
func (r *Recorder) AddEvent(ev Event) {
	if r == nil {
		return
	}
	r.eventCount.Add(1)
	r.mu.Lock()
	if len(r.events) < cap(r.events) {
		r.events = append(r.events, ev)
	} else {
		r.events[r.evNext] = ev
		r.evNext = (r.evNext + 1) % cap(r.events)
	}
	r.mu.Unlock()
}

// Recent returns up to limit captured records, newest first, optionally
// filtered by client and/or action. limit <= 0 means no limit. The
// returned records are copies.
func (r *Recorder) Recent(limit int, client, action string) []Record {
	if r == nil {
		return nil
	}
	match := func(rec *Record) bool {
		if client != "" && rec.Client != client {
			return false
		}
		if action != "" && rec.Action != action {
			return false
		}
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, min(nonZero(limit), len(r.ring)+len(r.head)))
	// Ring newest → oldest: walk backwards from the slot before ringNext
	// (append-phase rings are newest at the end, ringNext == 0).
	for i := 0; i < len(r.ring); i++ {
		idx := (r.ringNext - 1 - i + 2*len(r.ring)) % len(r.ring)
		if rec := &r.ring[idx]; match(rec) {
			out = append(out, *rec)
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	for i := len(r.head) - 1; i >= 0; i-- {
		if rec := &r.head[i]; match(rec) {
			out = append(out, *rec)
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	return out
}

func nonZero(limit int) int {
	if limit <= 0 {
		return 1 << 20
	}
	return limit
}

// Explain assembles the provenance timeline for one client: its captured
// records in stream order plus the provenance events that frame them.
func (r *Recorder) Explain(client string) Timeline {
	tl := Timeline{Client: client}
	if r == nil {
		return tl
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.head {
		if r.head[i].Client == client {
			tl.Records = append(tl.Records, r.head[i])
		}
	}
	// Ring oldest → newest.
	for i := 0; i < len(r.ring); i++ {
		idx := (r.ringNext + i) % len(r.ring)
		if r.ring[idx].Client == client {
			tl.Records = append(tl.Records, r.ring[idx])
		}
	}
	for i := 0; i < len(r.events); i++ {
		idx := i
		if len(r.events) == cap(r.events) {
			idx = (r.evNext + i) % len(r.events)
		}
		if ev := r.events[idx]; ev.Client == "" || ev.Client == client {
			tl.Events = append(tl.Events, ev)
		}
	}
	return tl
}

// RecorderStats summarises recorder activity for the trace endpoint.
type RecorderStats struct {
	// Seen counts decisions offered to the sampler.
	Seen uint64 `json:"seen"`
	// Captured counts records stored (any sample kind).
	Captured uint64 `json:"captured"`
	// Overwritten counts ring slots recycled before being read.
	Overwritten uint64 `json:"overwritten"`
	// Events counts provenance events recorded.
	Events uint64 `json:"events"`
	// Held is the number of records currently retrievable (head + ring).
	Held int `json:"held"`
}

// Stats snapshots the recorder counters.
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	r.mu.Lock()
	held := len(r.head) + len(r.ring)
	r.mu.Unlock()
	return RecorderStats{
		Seen:        r.seen.Load(),
		Captured:    r.captured.Load(),
		Overwritten: r.overwrites.Load(),
		Events:      r.eventCount.Load(),
		Held:        held,
	}
}
