package diversity

import "math"

// McNemar is the McNemar test over a pair of detectors' discordant
// decisions: given how often exactly one tool is correct (the b and c
// cells of the correctness table), it asks whether the two tools'
// error rates differ significantly or the observed asymmetry is chance.
// This is the standard significance test for comparing two classifiers
// on paired data — the statistical footing the paper's next-step
// analysis would need before declaring one tool better.
type McNemar struct {
	// Statistic is the continuity-corrected chi-squared statistic
	// (|b-c|-1)²/(b+c), 0 when there are no discordant pairs.
	Statistic float64
	// PValue is the two-sided p-value under the chi-squared distribution
	// with one degree of freedom.
	PValue float64
	// Discordant is b+c, the number of requests exactly one tool judged
	// correctly.
	Discordant uint64
}

// McNemarFromCorrectness computes the test from an
// agreement-on-correctness table (Table.Correctness).
func McNemarFromCorrectness(t Contingency) McNemar {
	b, c := t.AOnly, t.BOnly
	m := McNemar{Discordant: b + c}
	if m.Discordant == 0 {
		m.PValue = 1
		return m
	}
	diff := math.Abs(float64(b) - float64(c))
	// Edwards' continuity correction; clamp at zero for tiny asymmetries.
	adj := diff - 1
	if adj < 0 {
		adj = 0
	}
	m.Statistic = adj * adj / float64(m.Discordant)
	m.PValue = chiSquared1Survival(m.Statistic)
	return m
}

// chiSquared1Survival returns P(X >= x) for X ~ chi-squared with one
// degree of freedom, via the complementary error function:
// P = erfc(sqrt(x/2)).
func chiSquared1Survival(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Erfc(math.Sqrt(x / 2))
}
