package report

import (
	"strings"
	"testing"
)

func TestCount(t *testing.T) {
	tests := []struct {
		give uint64
		want string
	}{
		{0, "0"},
		{7, "7"},
		{999, "999"},
		{1000, "1,000"},
		{43648, "43,648"},
		{1469744, "1,469,744"},
		{1231408, "1,231,408"},
		{1000000000, "1,000,000,000"},
	}
	for _, tt := range tests {
		if got := Count(tt.give); got != tt.want {
			t.Errorf("Count(%d) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(1231408, 1469744); got != "83.78%" {
		t.Errorf("Percent = %q, want 83.78%%", got)
	}
	if got := Percent(1, 0); got != "n/a" {
		t.Errorf("Percent with zero denominator = %q", got)
	}
}

func TestMetric(t *testing.T) {
	if got := Metric(0.92345); got != "0.923" {
		t.Errorf("Metric = %q", got)
	}
	if got := Metric(1); got != "1.000" {
		t.Errorf("Metric(1) = %q", got)
	}
}

func TestTableRenderGolden(t *testing.T) {
	tbl := &Table{
		Title:   "Table 2 – Diversity",
		Columns: []string{"Bucket", "Count"},
		Aligns:  []Align{Left, Right},
	}
	tbl.AddRow("Both", "1,231,408")
	tbl.AddRow("Neither", "185,383")

	want := strings.Join([]string{
		"Table 2 – Diversity",
		"Bucket        Count",
		"----------------------",
		"Both      1,231,408",
		"Neither     185,383",
		"",
	}, "\n")
	if got := tbl.String(); got != want {
		t.Errorf("render mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tbl := &Table{Columns: []string{"A", "B", "C"}}
	tbl.AddRow("only-one")
	tbl.AddRow("x", "y", "z")
	out := tbl.String()
	if !strings.Contains(out, "only-one") || !strings.Contains(out, "z") {
		t.Errorf("ragged rows rendered wrong:\n%s", out)
	}
	if tbl.Rows() != 2 {
		t.Errorf("Rows = %d", tbl.Rows())
	}
	if tbl.rows[0][0] != "only-one" || len(tbl.rows[0]) != 1 {
		t.Errorf("short row stored as %q", tbl.rows[0])
	}
}

func TestTableWideCellGrowsColumn(t *testing.T) {
	tbl := &Table{Columns: []string{"X"}}
	tbl.AddRow("a value wider than the header")
	lines := strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n")
	// Header line must be padded to the widest cell.
	if len(lines[0]) < len("a value wider than the header") {
		t.Errorf("header not padded: %q", lines[0])
	}
}

func TestTableNoColumns(t *testing.T) {
	tbl := &Table{}
	tbl.AddRow("lonely")
	if !strings.Contains(tbl.String(), "lonely") {
		t.Error("headerless table lost its row")
	}
}
