package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"divscrape"
	"divscrape/internal/detector"
	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
)

// agreement is the N-detector alert table scrapedetect prints: how often
// all, none and exactly one detector alerted, plus each detector's own
// alert count. Every cell is a commutative count, so per-shard tables
// merge into the ordered run's table exactly.
type agreement struct {
	total, all, none uint64
	only, alerts     []uint64
}

func newAgreement(n int) *agreement {
	return &agreement{only: make([]uint64, n), alerts: make([]uint64, n)}
}

// add records one decision and returns its alert vote count.
func (a *agreement) add(verdicts []detector.Verdict) int {
	votes, last := 0, -1
	for i := range verdicts {
		if verdicts[i].Alert {
			votes++
			last = i
			a.alerts[i]++
		}
	}
	a.total++
	switch votes {
	case 0:
		a.none++
	case len(verdicts):
		a.all++
	}
	if votes == 1 {
		a.only[last]++
	}
	return votes
}

func (a *agreement) merge(o *agreement) {
	a.total += o.total
	a.all += o.all
	a.none += o.none
	for i := range o.only {
		a.only[i] += o.only[i]
		a.alerts[i] += o.alerts[i]
	}
}

func (a *agreement) equal(o *agreement) bool {
	if a.total != o.total || a.all != o.all || a.none != o.none || len(a.only) != len(o.only) {
		return false
	}
	for i := range a.only {
		if a.only[i] != o.only[i] || a.alerts[i] != o.alerts[i] {
			return false
		}
	}
	return true
}

func (a *agreement) String() string {
	return fmt.Sprintf("total=%d all=%d none=%d only=%v alerts=%v", a.total, a.all, a.none, a.only, a.alerts)
}

// outcome is what one pass over a workload's input produced; passes are
// compared on it, so a wrong answer fails the run rather than timing it.
type outcome struct {
	agree *agreement
	// skipped counts log lines the reader refused.
	skipped uint64
	// actions is the mitigation ladder's tally, on workloads that run one.
	actions mitigate.ActionCounts
	// failed counts requests that got no usable answer (guard-http:
	// transport errors and 5xx not owed to the ladder).
	failed uint64
}

// check compares a pass with the reference computed at set-up.
func (o *outcome) check(ref *outcome, what string) error {
	if o.skipped != 0 {
		return fmt.Errorf("%s: %d lines skipped", what, o.skipped)
	}
	if o.failed != 0 {
		return fmt.Errorf("%s: %d requests failed", what, o.failed)
	}
	if o.agree != nil && ref.agree != nil && !o.agree.equal(ref.agree) {
		return fmt.Errorf("%s: agreement table differs from the reference:\n  got  %v\n  want %v", what, o.agree, ref.agree)
	}
	return nil
}

// referenceFromLog is the plain facade's answer for the bytes at path: a
// DetectorSet inspecting every entry the reader yields, which is what
// divscrape.AnalyzeLogSet does, kept as the full N-way table.
func referenceFromLog(path string, names []string) (*outcome, error) {
	set, err := divscrape.NewDetectorSet(names...)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ref := &outcome{agree: newAgreement(set.Len())}
	verdicts := make([]divscrape.Verdict, set.Len())
	lr := logfmt.NewReader(f, logfmt.ReaderConfig{Policy: logfmt.Skip})
	var e logfmt.Entry
	for {
		if err := lr.NextInto(&e); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("reference: %w", err)
		}
		set.InspectInto(e, verdicts)
		ref.agree.add(verdicts)
	}
	ref.skipped = uint64(lr.Skipped())
	return ref, nil
}
