package experiments

import (
	"fmt"

	"divscrape/internal/detector"
	"divscrape/internal/diversity"
	"divscrape/internal/evaluate"
	"divscrape/internal/logfmt"
	"divscrape/internal/report"
)

// Table1 renders E1: total requests and per-tool alert counts, with the
// paper's numbers alongside for shape comparison. Column naming follows
// the paper: "Distil" is played by sentinel, "Arcane" by arcane.
func Table1(run *Run) *report.Table {
	total, c := run.Table.Total(), run.Table.Pair(0, 1)
	t := &report.Table{
		Title:   "Table 1 – HTTP requests alerted by the two tools",
		Columns: []string{"", "Measured", "Share", "Paper", "Share"},
		Aligns:  []report.Align{report.Left, report.Right, report.Right, report.Right, report.Right},
	}
	t.AddRow("Total HTTP requests",
		report.Count(total), "",
		report.Count(PaperTable1.Total), "")
	t.AddRow(fmt.Sprintf("Alerted by %s (Distil role)", run.Names.A),
		report.Count(c.TotalA()), report.Percent(c.TotalA(), total),
		report.Count(PaperTable1.Distil), report.Percent(PaperTable1.Distil, PaperTable1.Total))
	t.AddRow(fmt.Sprintf("Alerted by %s (Arcane role)", run.Names.B),
		report.Count(c.TotalB()), report.Percent(c.TotalB(), total),
		report.Count(PaperTable1.Arcane), report.Percent(PaperTable1.Arcane, PaperTable1.Total))
	return t
}

// Table2 renders E2: the alerting-diversity contingency table.
func Table2(run *Run) *report.Table {
	total, c := run.Table.Total(), run.Table.Pair(0, 1)
	t := &report.Table{
		Title:   "Table 2 – Diversity in the alerting behavior by the two tools",
		Columns: []string{"HTTP requests alerted as malicious by", "Measured", "Share", "Paper", "Share"},
		Aligns:  []report.Align{report.Left, report.Right, report.Right, report.Right, report.Right},
	}
	paperTotal := PaperTable1.Total
	t.AddRow("Both tools",
		report.Count(c.Both), report.Percent(c.Both, total),
		report.Count(PaperTable2.Both), report.Percent(PaperTable2.Both, paperTotal))
	t.AddRow("Neither",
		report.Count(c.Neither), report.Percent(c.Neither, total),
		report.Count(PaperTable2.Neither), report.Percent(PaperTable2.Neither, paperTotal))
	t.AddRow(fmt.Sprintf("%s only (Arcane role)", run.Names.B),
		report.Count(c.BOnly), report.Percent(c.BOnly, total),
		report.Count(PaperTable2.ArcaneOnly), report.Percent(PaperTable2.ArcaneOnly, paperTotal))
	t.AddRow(fmt.Sprintf("%s only (Distil role)", run.Names.A),
		report.Count(c.AOnly), report.Percent(c.AOnly, total),
		report.Count(PaperTable2.DistilOnly), report.Percent(PaperTable2.DistilOnly, paperTotal))
	return t
}

// Table3 renders E3: alerted requests by HTTP status, overall counts.
// Layout follows the paper: the two tools side by side, each sorted by
// descending count.
func Table3(run *Run) *report.Table {
	return statusTable(
		"Table 3 – Alerted requests by HTTP status – overall counts",
		run.Names, run.Status.Ranked(alertsOf(1)), run.Status.Ranked(alertsOf(0)))
}

// Table4 renders E4: per-status counts for requests alerted by exactly
// one tool.
func Table4(run *Run) *report.Table {
	return statusTable(
		"Table 4 – Alerted requests by HTTP status – single-tool alerts",
		run.Names, run.Status.Ranked(onlyOf(1)), run.Status.Ranked(onlyOf(0)))
}

// alertsOf and onlyOf count detector i's alerts, and the alerts it
// raised alone, in a pair table.
func alertsOf(i int) func(*diversity.Table) uint64 {
	return func(t *diversity.Table) uint64 {
		c := t.Confusion(i)
		return c.TP + c.FP
	}
}

func onlyOf(i int) func(*diversity.Table) uint64 {
	return func(t *diversity.Table) uint64 { return t.Only(i) }
}

func statusTable(title string, names DetectorPair, arcaneRows, sentinelRows []diversity.KeyCount[int]) *report.Table {
	t := &report.Table{
		Title: title,
		Columns: []string{
			names.B + " status", "Count",
			names.A + " status", "Count",
		},
		Aligns: []report.Align{report.Left, report.Right, report.Left, report.Right},
	}
	rows := len(arcaneRows)
	if len(sentinelRows) > rows {
		rows = len(sentinelRows)
	}
	for i := 0; i < rows; i++ {
		var c0, c1, c2, c3 string
		if i < len(arcaneRows) {
			c0 = logfmt.StatusLabel(arcaneRows[i].Key)
			c1 = report.Count(arcaneRows[i].Count)
		}
		if i < len(sentinelRows) {
			c2 = logfmt.StatusLabel(sentinelRows[i].Key)
			c3 = report.Count(sentinelRows[i].Count)
		}
		t.AddRow(c0, c1, c2, c3)
	}
	return t
}

// Table5 renders E5: the labelled evaluation the paper names as its next
// step — per-tool confusion matrices and the binary-classifier metrics.
func Table5(run *Run) *report.Table {
	t := &report.Table{
		Title:   "E5 – Labelled evaluation (per tool)",
		Columns: []string{"Metric", run.Names.A, run.Names.B},
		Aligns:  []report.Align{report.Left, report.Right, report.Right},
	}
	addConfusionRows(t, []evaluate.Confusion{run.Table.Confusion(0), run.Table.Confusion(1)})
	return t
}

// Table6 renders E6: adjudication schemes over the pair.
func Table6(run *Run) *report.Table {
	t := &report.Table{
		Title:   "E6 – Adjudication schemes (parallel monitoring)",
		Columns: []string{"Metric", "1-out-of-2", "2-out-of-2", "weighted"},
		Aligns:  []report.Align{report.Left, report.Right, report.Right, report.Right},
	}
	addConfusionRows(t, []evaluate.Confusion{run.Table.Vote(1), run.Table.Vote(2), run.ConfWeighted})
	return t
}

func addConfusionRows(t *report.Table, confs []evaluate.Confusion) {
	row := func(name string, f func(*evaluate.Confusion) string) {
		cells := make([]string, 0, len(confs)+1)
		cells = append(cells, name)
		for i := range confs {
			cells = append(cells, f(&confs[i]))
		}
		t.AddRow(cells...)
	}
	row("TP", func(c *evaluate.Confusion) string { return report.Count(c.TP) })
	row("FP", func(c *evaluate.Confusion) string { return report.Count(c.FP) })
	row("TN", func(c *evaluate.Confusion) string { return report.Count(c.TN) })
	row("FN", func(c *evaluate.Confusion) string { return report.Count(c.FN) })
	row("Sensitivity", func(c *evaluate.Confusion) string { return report.Metric(c.Sensitivity()) })
	row("Specificity", func(c *evaluate.Confusion) string { return report.Metric(c.Specificity()) })
	row("Precision", func(c *evaluate.Confusion) string { return report.Metric(c.Precision()) })
	row("F1", func(c *evaluate.Confusion) string { return report.Metric(c.F1()) })
	row("MCC", func(c *evaluate.Confusion) string { return report.Metric(c.MCC()) })
}

// Table7 renders E7: deployment topologies with per-detector inspection
// cost — the parallel vs serial trade-off the paper sketches.
func Table7(results []TopologyResult) *report.Table {
	t := &report.Table{
		Title: "E7 – Parallel vs serial deployment (detection vs inspection cost)",
		Columns: []string{
			"Topology", "Sens", "Spec", "F1",
			"Insp(1st)", "Insp(2nd)", "2nd-stage load",
		},
		Aligns: []report.Align{
			report.Left, report.Right, report.Right, report.Right,
			report.Right, report.Right, report.Right,
		},
	}
	for i := range results {
		r := &results[i]
		first, second := uint64(0), uint64(0)
		if len(r.Costs) > 0 {
			first = r.Costs[0].Inspected
		}
		if len(r.Costs) > 1 {
			second = r.Costs[1].Inspected
		}
		t.AddRow(r.Name,
			report.Metric(r.Conf.Sensitivity()),
			report.Metric(r.Conf.Specificity()),
			report.Metric(r.Conf.F1()),
			report.Count(first),
			report.Count(second),
			report.Percent(second, first),
		)
	}
	return t
}

// Table8 renders E8: the per-archetype breakdown of single-tool alerts —
// the paper's "why is a given tool more appropriate to detect certain
// behaviors".
func Table8(run *Run) *report.Table {
	t := &report.Table{
		Title: "E8 – Alert agreement by ground-truth archetype",
		Columns: []string{
			"Archetype", "Requests", "Both",
			run.Names.A + " only", run.Names.B + " only", "Neither",
		},
		Aligns: []report.Align{
			report.Left, report.Right, report.Right,
			report.Right, report.Right, report.Right,
		},
	}
	for _, arch := range detector.Archetypes() {
		ct := run.ByArch.Table(arch).Pair(0, 1)
		if ct.Total() == 0 {
			continue
		}
		t.AddRow(arch.String(),
			report.Count(ct.Total()),
			report.Count(ct.Both),
			report.Count(ct.AOnly),
			report.Count(ct.BOnly),
			report.Count(ct.Neither),
		)
	}
	return t
}

// Table9 renders E9: the classical diversity statistics over both the
// raw alert agreement and the labelled correctness agreement.
func Table9(run *Run) *report.Table {
	corr := run.Table.Correctness(0, 1)
	alerting := diversity.MeasuresFromContingency(run.Table.Pair(0, 1))
	correctness := diversity.MeasuresFromContingency(corr)
	t := &report.Table{
		Title:   "E9 – Pairwise diversity measures",
		Columns: []string{"Measure", "Alert agreement", "Correctness agreement"},
		Aligns:  []report.Align{report.Left, report.Right, report.Right},
	}
	t.AddRow("Yule's Q", report.Metric(alerting.YuleQ), report.Metric(correctness.YuleQ))
	t.AddRow("Disagreement", report.Metric(alerting.Disagreement), report.Metric(correctness.Disagreement))
	t.AddRow("Double fault / both-miss", report.Metric(alerting.DoubleFault), report.Metric(correctness.DoubleFault))
	mcnemar := diversity.McNemarFromCorrectness(corr)
	t.AddRow("McNemar chi-squared", "", report.Metric(mcnemar.Statistic))
	t.AddRow("McNemar p-value", "", report.Metric(mcnemar.PValue))
	return t
}

// Table10 renders E10: threshold sweeps — AUC plus selected operating
// points per tool.
func Table10(run *Run) *report.Table {
	t := &report.Table{
		Title:   "E10 – ROC threshold sweep",
		Columns: []string{"Quantity", run.Names.A, run.Names.B},
		Aligns:  []report.Align{report.Left, report.Right, report.Right},
	}
	t.AddRow("AUC",
		report.Metric(run.ROCA.AUC()),
		report.Metric(run.ROCB.AUC()))
	ta, ca := run.ROCA.BestYouden()
	tb, cb := run.ROCB.BestYouden()
	t.AddRow("Best-Youden threshold",
		report.Metric(ta), report.Metric(tb))
	t.AddRow("  sensitivity there",
		report.Metric(ca.Sensitivity()), report.Metric(cb.Sensitivity()))
	t.AddRow("  specificity there",
		report.Metric(ca.Specificity()), report.Metric(cb.Specificity()))
	for _, thr := range []float64{0.1, 0.2, 0.3, 0.5} {
		a := run.ROCA.ConfusionAt(thr)
		b := run.ROCB.ConfusionAt(thr)
		t.AddRow(fmt.Sprintf("TPR/FPR @ t=%.1f", thr),
			fmt.Sprintf("%s/%s", report.Metric(a.Sensitivity()), report.Metric(a.FPR())),
			fmt.Sprintf("%s/%s", report.Metric(b.Sensitivity()), report.Metric(b.FPR())),
		)
	}
	return t
}
