package alertlog

import (
	"bytes"
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

// TestRoundTrip pins the sidecar's exact bytes: the header, three-decimal
// scores, and rows numbered by the running counter or, through WriteAt,
// by an explicit position — out of order included, since the counter
// then continues from the explicit one.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, []string{"sentinel", "arcane"})
	if err != nil {
		t.Fatal(err)
	}
	write := func(seq int, a, b detector.Verdict) {
		t.Helper()
		row := []detector.Verdict{a, b}
		if seq < 0 {
			err = w.Write(row)
		} else {
			err = w.WriteAt(uint64(seq), row)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	write(-1, detector.Verdict{Alert: true, Score: 0.432}, detector.Verdict{Score: 0.1})
	write(-1, detector.Verdict{}, detector.Verdict{Alert: true, Score: 0.9996})
	write(7, detector.Verdict{Alert: true, Score: 1}, detector.Verdict{Alert: true, Score: 0.5})
	write(-1, detector.Verdict{Score: 0.0004}, detector.Verdict{Score: 12.25})
	write(3, detector.Verdict{}, detector.Verdict{Alert: true})
	if w.Count() != 4 {
		t.Errorf("Count = %d, want 4: the counter follows the last WriteAt", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	const want = "seq,sentinel_alert,sentinel_score,arcane_alert,arcane_score\n" +
		"0,1,0.432,0,0.100\n" +
		"1,0,0.000,1,1.000\n" +
		"7,1,1.000,1,0.500\n" +
		"8,0,0.000,0,12.250\n" +
		"3,0,0.000,1,0.000\n"
	if got := buf.String(); got != want {
		t.Errorf("sidecar bytes:\n%s\nwant:\n%s", got, want)
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
