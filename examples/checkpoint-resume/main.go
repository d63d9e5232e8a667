// Checkpoint-resume walkthrough: detection state that survives the
// process. The paper's insight — two diverse detectors watching the same
// traffic — only pays off if both detectors *remember*: the behavioural
// detector needs a session's history to score it, the commercial one
// tracks challenge solves and rate debt per client, and real scraping
// campaigns run for days while real processes restart (deploys, crashes,
// log rotation). This example makes the restart visible and then makes
// it disappear:
//
//  1. Replay the first half of a seeded day of traffic, then "crash".
//  2. Naive restart: a fresh detector pair replays the second half from
//     empty state — warm-ups re-run, session evidence is gone, alerts on
//     the split differ from the uninterrupted truth.
//  3. Durable restart: the same second half, but resumed from a
//     divscrape.Snapshot taken at the crash point — the verdict stream is
//     verified identical, event for event, to a run that never stopped.
//
// The snapshot is a versioned, checksummed, deterministic binary blob
// (internal/statecodec): equal state always produces equal bytes, corrupt
// or wrong-version files fail with typed errors, and the same format
// drives pipeline.Checkpoint/ResumeFrom, scrapedetect -save-state /
// -load-state, and httpguard's live shard rebalancing.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"divscrape"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

type verdictPair struct{ c, b divscrape.Verdict }

func run() error {
	gen, err := divscrape.NewGenerator(divscrape.GeneratorConfig{Seed: 11, Duration: 24 * time.Hour})
	if err != nil {
		return err
	}
	events, err := gen.Generate()
	if err != nil {
		return err
	}
	k := len(events) / 2
	fmt.Printf("workload: %d requests over 24h; process \"crashes\" after request %d\n\n", len(events), k)

	// The uninterrupted run is the ground truth.
	truth, err := replay(nil, events)
	if err != nil {
		return err
	}

	// First half, then snapshot at the crash point.
	head, err := divscrape.NewDetectorSet()
	if err != nil {
		return err
	}
	if _, err := replay(head, events[:k]); err != nil {
		return err
	}
	var state bytes.Buffer
	if err := divscrape.Snapshot(&state, head); err != nil {
		return err
	}
	fmt.Printf("snapshot at crash point: %d bytes of per-client session state\n\n", state.Len())

	// Naive restart: fresh pair, empty memory.
	naive, err := replay(nil, events[k:])
	if err != nil {
		return err
	}

	// Durable restart: resume from the snapshot.
	set, err := divscrape.Resume(bytes.NewReader(state.Bytes()))
	if err != nil {
		return err
	}
	resumed, err := replay(set, events[k:])
	if err != nil {
		return err
	}
	naiveDiverged, resumedDiverged := 0, 0
	for i := range naive {
		if naive[i] != truth[k+i] {
			naiveDiverged++
		}
		if resumed[i] != truth[k+i] {
			resumedDiverged++
		}
	}

	fmt.Printf("second half (%d requests) vs uninterrupted run:\n", len(events)-k)
	fmt.Printf("  fresh pair after restart:    %6d verdicts diverge (session memory lost)\n", naiveDiverged)
	fmt.Printf("  pair resumed from snapshot:  %6d verdicts diverge\n\n", resumedDiverged)

	if resumedDiverged != 0 {
		return fmt.Errorf("resumed run diverged on %d verdicts; the determinism guarantee is broken", resumedDiverged)
	}
	if naiveDiverged == 0 {
		return fmt.Errorf("fresh pair matched the uninterrupted run; the workload exercises no cross-boundary sessions")
	}
	fmt.Println("resumed run is event-for-event identical to the run that never crashed.")
	return nil
}

// replay judges events through pair — a fresh pair when nil — recording
// both verdicts per request.
func replay(pair *divscrape.DetectorSet, events []divscrape.Event) ([]verdictPair, error) {
	if pair == nil {
		var err error
		if pair, err = divscrape.NewDetectorSet(); err != nil {
			return nil, err
		}
	}
	v := make([]divscrape.Verdict, pair.Len())
	out := make([]verdictPair, len(events))
	for i := range events {
		if err := pair.InspectInto(events[i].Entry, v); err != nil {
			return nil, err
		}
		out[i] = verdictPair{v[0], v[1]}
	}
	return out, nil
}
