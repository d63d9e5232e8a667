package httpguard

import (
	"context"
	"fmt"
	"time"

	"divscrape/internal/faultinject"
	"divscrape/internal/shard"
)

// The guard's failure plane, above its shards' quarantine (internal/shard)
// and the restore points its sweep slot keeps for them:
//
//   - Degraded-mode policy: what the guard does while it cannot fully
//     judge a request is an explicit, configured choice (FailOpen /
//     FailClosed), surfaced in metrics and the health endpoint —
//     never a silent default an adversary can probe for.
//   - Admission control: a per-shard in-flight bound sheds excess
//     requests to the degraded policy before queueing on the shard
//     lock collapses latency for everyone.
//
// Quarantine backoff runs on request event time (the injected clock), so
// it is deterministic under test and nothing here ever sleeps.

// fiClock is the chaos suite's clock-skew point on the guard's time
// source; the panics and stalls it injects into a detector's inspect path
// go through the shard's shard.inspect.<name> points.
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

// notifyDegraded is every shard's failure-plane observer: it counts the
// transition and delivers it to Config.OnDegraded. (The shard has written
// it to the flight recorder's provenance events already.) Called under the
// shard mutex — the callback must not call back into the guard.
func (g *Guard) notifyDegraded(index, side int, at time.Time, p *shard.PanicError) {
	ev := DegradedEvent{Shard: index, Detector: g.names[side], Kind: "restore", At: at}
	if p != nil {
		g.panics[side].Add(1)
		ev.Kind, ev.Reason = "quarantine", fmt.Sprint(p.Value)
	} else {
		g.restores[side].Add(1)
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
