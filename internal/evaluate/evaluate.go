// Package evaluate scores detectors against ground-truth labels: confusion
// matrices with the standard binary-classifier metrics (the sensitivity
// and specificity the paper names as its intended next step), and ROC
// threshold sweeps over recorded verdict scores.
package evaluate

import "math"

// Confusion is a binary-classification confusion matrix where "positive"
// means "malicious scraping request".
type Confusion struct {
	// TP counts malicious requests that were alerted.
	TP uint64
	// FP counts benign requests that were alerted.
	FP uint64
	// TN counts benign requests that were not alerted.
	TN uint64
	// FN counts malicious requests that were not alerted.
	FN uint64
}

// Add records one labelled decision.
func (c *Confusion) Add(alert, malicious bool) {
	switch {
	case alert && malicious:
		c.TP++
	case alert:
		c.FP++
	case malicious:
		c.FN++
	default:
		c.TN++
	}
}

// Total returns the number of recorded requests.
func (c Confusion) Total() uint64 { return c.TP + c.FP + c.TN + c.FN }

// Sensitivity (recall, TPR) is TP/(TP+FN); NaN-free: 0 when undefined.
func (c Confusion) Sensitivity() float64 { return ratio(c.TP, c.TP+c.FN) }

// Specificity (TNR) is TN/(TN+FP).
func (c Confusion) Specificity() float64 { return ratio(c.TN, c.TN+c.FP) }

// Precision (PPV) is TP/(TP+FP).
func (c Confusion) Precision() float64 { return ratio(c.TP, c.TP+c.FP) }

// FPR is FP/(FP+TN).
func (c Confusion) FPR() float64 { return ratio(c.FP, c.FP+c.TN) }

// F1 is the harmonic mean of precision and sensitivity.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Sensitivity()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MCC is the Matthews correlation coefficient in [-1, 1], 0 when any
// marginal is empty.
func (c Confusion) MCC() float64 {
	tp, fp, tn, fn := float64(c.TP), float64(c.FP), float64(c.TN), float64(c.FN)
	den := math.Sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
	if den == 0 {
		return 0
	}
	return (tp*tn - fp*fn) / den
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
