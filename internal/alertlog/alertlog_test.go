package alertlog

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"divscrape/internal/detector"
)

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, nil); err == nil {
		t.Error("no detectors accepted")
	}
	if _, err := NewWriter(&buf, []string{"a,b"}); err == nil {
		t.Error("comma in name accepted")
	}
	if _, err := NewWriter(&buf, []string{""}); err == nil {
		t.Error("empty name accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, []string{"sentinel", "arcane"})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]detector.Verdict{
		{{Alert: true, Score: 0.432}, {Alert: false, Score: 0.1}},
		{{Alert: false, Score: 0}, {Alert: true, Score: 0.999}},
		{{Alert: true, Score: 1}, {Alert: true, Score: 0.5}},
	}
	for _, row := range rows {
		if err := w.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Errorf("Count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if names := r.Detectors(); len(names) != 2 || names[0] != "sentinel" || names[1] != "arcane" {
		t.Errorf("Detectors = %v", names)
	}
	for i, want := range rows {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if rec.Seq != uint64(i) {
			t.Errorf("row %d seq = %d", i, rec.Seq)
		}
		for j := range want {
			if rec.Verdicts[j].Alert != want[j].Alert {
				t.Errorf("row %d verdict %d alert mismatch", i, j)
			}
			if math.Abs(rec.Verdicts[j].Score-want[j].Score) > 0.0005 {
				t.Errorf("row %d verdict %d score %g vs %g", i, j,
					rec.Verdicts[j].Score, want[j].Score)
			}
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestWriterArityCheck(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, []string{"one"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]detector.Verdict{{}, {}}); err == nil {
		t.Error("wrong verdict arity accepted")
	}
}

func TestReaderErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{"empty", ""},
		{"bad header", "nope\n"},
		{"odd header", "seq,a_alert\n"},
		{"mismatched header pair", "seq,a_alert,b_score\n"},
		{"short row", "seq,a_alert,a_score\n0,1\n"},
		{"bad seq", "seq,a_alert,a_score\nx,1,0.5\n"},
		{"out of order", "seq,a_alert,a_score\n1,1,0.5\n"},
		{"bad flag", "seq,a_alert,a_score\n0,2,0.5\n"},
		{"bad score", "seq,a_alert,a_score\n0,1,zzz\n"},
		{"negative score", "seq,a_alert,a_score\n0,1,-0.5\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r, err := NewReader(strings.NewReader(tt.give))
			if err != nil {
				return // header-level rejection is fine
			}
			for {
				_, err := r.Next()
				if errors.Is(err, io.EOF) {
					t.Error("malformed input accepted")
				}
				if err != nil {
					return
				}
			}
		})
	}
}
