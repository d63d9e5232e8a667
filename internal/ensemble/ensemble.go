// Package ensemble combines verdicts from diverse detectors, implementing
// the adjudication schemes the DSN 2018 paper's Section V proposes to
// evaluate: r-out-of-n voting (1-out-of-2 "alarm if either", 2-out-of-2
// "alarm only if both"), weighted score fusion, and the parallel vs serial
// deployment topologies with their inspection-cost accounting.
package ensemble

import (
	"fmt"

	"divscrape/internal/detector"
	"divscrape/internal/mitigate"
)

// Adjudicator folds per-detector verdicts on one request into a final
// decision.
type Adjudicator interface {
	// Name identifies the scheme in reports.
	Name() string
	// Decide combines verdicts, ordered consistently with the detector
	// list the caller registered.
	Decide(verdicts []detector.Verdict) detector.Verdict
}

// KOutOfN alerts when at least K of the verdicts alert. K=1 over two
// detectors is the paper's "1-out-of-2" scheme (maximise detection), K=N
// is "2-out-of-2" (minimise false alarms).
type KOutOfN struct {
	// K is the vote threshold (>= 1).
	K int
}

var _ Adjudicator = KOutOfN{}

// Name implements Adjudicator.
func (k KOutOfN) Name() string { return fmt.Sprintf("%d-out-of-n", k.K) }

// Decide implements Adjudicator. The fused score is the K-th largest
// verdict score, so thresholding the fused score reproduces the vote.
func (k KOutOfN) Decide(verdicts []detector.Verdict) detector.Verdict {
	if k.K < 1 || len(verdicts) == 0 {
		return detector.Verdict{}
	}
	votes := 0
	out := detector.Verdict{}
	// K-th largest score without sorting: for the small N here (2-5
	// detectors) a selection scan is cheapest.
	out.Score = kthLargestScore(verdicts, k.K)
	for i := range verdicts {
		v := &verdicts[i]
		if v.Alert {
			votes++
			for j := 0; j < v.Reasons.Len(); j++ {
				out.Reasons.Append(v.Reasons.At(j))
			}
		}
	}
	out.Alert = votes >= k.K
	if !out.Alert {
		out.Reasons = detector.ReasonList{}
	}
	return out
}

func kthLargestScore(verdicts []detector.Verdict, k int) float64 {
	if k > len(verdicts) {
		k = len(verdicts)
	}
	// Insertion-select over a tiny slice.
	var top [8]float64
	n := len(verdicts)
	if n > len(top) {
		n = len(top)
	}
	count := 0
	for _, v := range verdicts {
		s := v.Score
		i := count
		if count < n {
			count++
		} else if s <= top[count-1] {
			continue
		} else {
			i = count - 1
		}
		for i > 0 && top[i-1] < s {
			top[i] = top[i-1]
			i--
		}
		top[i] = s
	}
	if k > count {
		k = count
	}
	if k < 1 {
		return 0
	}
	return top[k-1]
}

// Weighted fuses scores linearly and alerts above a threshold; it is the
// natural generalisation once per-detector reliabilities are known (the
// paper's labelled next step).
type Weighted struct {
	// Weights aligns with the detector order; missing entries count 0.
	Weights []float64
	// Threshold is the fused-score alert level.
	Threshold float64
	// Label names the scheme in reports; defaults to "weighted".
	Label string
}

var _ Adjudicator = Weighted{}

// Name implements Adjudicator.
func (w Weighted) Name() string {
	if w.Label != "" {
		return w.Label
	}
	return "weighted"
}

// Decide implements Adjudicator.
func (w Weighted) Decide(verdicts []detector.Verdict) detector.Verdict {
	var sum, total float64
	for i, v := range verdicts {
		if i >= len(w.Weights) {
			break
		}
		sum += w.Weights[i] * v.Score
		total += w.Weights[i]
	}
	if total > 0 {
		sum /= total
	}
	out := detector.Verdict{Score: sum, Alert: sum >= w.Threshold}
	if out.Alert {
		for i := range verdicts {
			v := &verdicts[i]
			if v.Alert {
				for j := 0; j < v.Reasons.Len(); j++ {
					out.Reasons.Append(v.Reasons.At(j))
				}
			}
		}
	}
	return out
}

// Assess is the vote every deployment shape feeds its mitigation ladder
// and writes into its flight records: alerted when any detector alerts,
// confirmed on a strict majority (both of the paper's pair, two of
// three), scored by the mean over all sides — a side that sat out counts
// as its zero verdict, so confirmation never gets easier while degraded.
func Assess(verdicts []detector.Verdict) mitigate.Assessment {
	var votes int
	var sum float64
	for i := range verdicts {
		if verdicts[i].Alert {
			votes++
		}
		sum += verdicts[i].Score
	}
	if len(verdicts) == 0 {
		return mitigate.Assessment{}
	}
	return mitigate.Assessment{
		Alerted:   votes > 0,
		Confirmed: votes > len(verdicts)/2,
		Score:     sum / float64(len(verdicts)),
	}
}
