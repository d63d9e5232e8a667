// Package alertlog persists per-request verdict streams as CSV sidecars
// aligned with the access log, so detector output can be archived, diffed
// across detector versions, and re-analysed without re-running detection.
// The format is one row per request:
//
//	seq,detector1_alert,detector1_score,detector2_alert,detector2_score,...
//
// with a header row naming the detectors. Scores are recorded at three
// decimals — enough to re-threshold offline without exploding file size.
package alertlog

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"divscrape/internal/detector"
)

// Writer streams verdict rows.
type Writer struct {
	bw        *bufio.Writer
	detectors []string
	seq       uint64
}

// NewWriter emits the header for the given detector names immediately.
func NewWriter(w io.Writer, detectors []string) (*Writer, error) {
	if len(detectors) == 0 {
		return nil, fmt.Errorf("alertlog: need at least one detector name")
	}
	names := make([]string, len(detectors))
	copy(names, detectors)
	for i, name := range names {
		if name == "" || strings.ContainsAny(name, ",\n") {
			return nil, fmt.Errorf("alertlog: invalid detector name %q", name)
		}
		names[i] = name
	}
	bw := bufio.NewWriterSize(w, 128*1024)
	header := "seq"
	for _, name := range names {
		header += "," + name + "_alert," + name + "_score"
	}
	if _, err := bw.WriteString(header + "\n"); err != nil {
		return nil, fmt.Errorf("alertlog: write header: %w", err)
	}
	return &Writer{bw: bw, detectors: names}, nil
}

// Write appends one row numbered with the writer's running counter. The
// verdict slice must align with the detector names given at construction.
func (w *Writer) Write(verdicts []detector.Verdict) error {
	return w.WriteAt(w.seq, verdicts)
}

// WriteAt appends one row with an explicit sequence number — the form
// checkpoint-resume replays use, where the stream position continues
// from the restored state rather than from zero. The writer's counter is
// realigned to seq+1, so Write and WriteAt interleave consistently.
func (w *Writer) WriteAt(seq uint64, verdicts []detector.Verdict) error {
	if len(verdicts) != len(w.detectors) {
		return fmt.Errorf("alertlog: got %d verdicts, want %d", len(verdicts), len(w.detectors))
	}
	w.seq = seq
	var buf [96]byte
	row := strconv.AppendUint(buf[:0], w.seq, 10)
	for _, v := range verdicts {
		row = append(row, ',')
		if v.Alert {
			row = append(row, '1')
		} else {
			row = append(row, '0')
		}
		row = append(row, ',')
		row = strconv.AppendFloat(row, v.Score, 'f', 3, 64)
	}
	row = append(row, '\n')
	if _, err := w.bw.Write(row); err != nil {
		return fmt.Errorf("alertlog: write row: %w", err)
	}
	w.seq++
	return nil
}

// Count reports rows written.
func (w *Writer) Count() uint64 { return w.seq }

// Flush drains buffered rows.
func (w *Writer) Flush() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("alertlog: flush: %w", err)
	}
	return nil
}
