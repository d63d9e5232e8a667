// Package report renders the evaluation's tables as aligned plain text in
// the visual style of the paper's Tables 1-4, including thousands
// separators and side-by-side tool columns.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Align selects column alignment.
type Align int

const (
	// Left-aligned column.
	Left Align = iota + 1
	// Right-aligned column (numbers).
	Right
)

// Table is a titled grid of cells.
type Table struct {
	// Title renders above the table, e.g. "Table 2 – Diversity in the
	// alerting behavior by the two tools".
	Title string
	// Columns are the header labels.
	Columns []string
	// Aligns pairs with Columns; missing entries default to Left.
	Aligns []Align
	rows   [][]string
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(cells))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.Columns)
	for _, row := range t.rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Columns {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}

	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	total := 0
	for _, w := range widths {
		total += w + 3
	}
	rule := strings.Repeat("-", total)
	if len(t.Columns) > 0 {
		t.writeRow(&sb, t.Columns, widths)
		sb.WriteString(rule)
		sb.WriteByte('\n')
	}
	for _, row := range t.rows {
		t.writeRow(&sb, row, widths)
	}
	_, err := io.WriteString(w, sb.String())
	if err != nil {
		return fmt.Errorf("report: render table: %w", err)
	}
	return nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Render(&sb)
	return sb.String()
}

func (t *Table) writeRow(sb *strings.Builder, cells []string, widths []int) {
	for i, width := range widths {
		var cell string
		if i < len(cells) {
			cell = cells[i]
		}
		align := Left
		if i < len(t.Aligns) {
			align = t.Aligns[i]
		}
		pad := width - len(cell)
		if pad < 0 {
			pad = 0
		}
		if align == Right {
			sb.WriteString(strings.Repeat(" ", pad))
			sb.WriteString(cell)
		} else {
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", pad))
		}
		if i != len(widths)-1 {
			sb.WriteString("   ")
		}
	}
	sb.WriteByte('\n')
}

// Count renders n with thousands separators, as the paper prints counts
// (e.g. 1,469,744).
func Count(n uint64) string {
	s := strconv.FormatUint(n, 10)
	if len(s) <= 3 {
		return s
	}
	var sb strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		sb.WriteString(s[:lead])
		if len(s) > lead {
			sb.WriteByte(',')
		}
	}
	for i := lead; i < len(s); i += 3 {
		sb.WriteString(s[i : i+3])
		if i+3 < len(s) {
			sb.WriteByte(',')
		}
	}
	return sb.String()
}

// Percent renders a ratio as "12.34%".
func Percent(num, den uint64) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f%%", 100*float64(num)/float64(den))
}

// Metric renders a [0,1] metric with three decimals.
func Metric(x float64) string { return strconv.FormatFloat(x, 'f', 3, 64) }
