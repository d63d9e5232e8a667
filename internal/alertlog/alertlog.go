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

// Record is one parsed verdict row.
type Record struct {
	// Seq is the request's position in the stream.
	Seq uint64
	// Verdicts aligns with the file's detector names.
	Verdicts []detector.Verdict
}

// Reader streams rows back.
type Reader struct {
	sc        *bufio.Scanner
	detectors []string
	line      int
	next      uint64
}

// NewReader parses the header and prepares to stream rows.
func NewReader(r io.Reader) (*Reader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("alertlog: read header: %w", err)
		}
		return nil, fmt.Errorf("alertlog: empty input")
	}
	fields := strings.Split(sc.Text(), ",")
	if len(fields) < 3 || fields[0] != "seq" || (len(fields)-1)%2 != 0 {
		return nil, fmt.Errorf("alertlog: malformed header %q", sc.Text())
	}
	var names []string
	for i := 1; i < len(fields); i += 2 {
		name, ok := strings.CutSuffix(fields[i], "_alert")
		if !ok || fields[i+1] != name+"_score" {
			return nil, fmt.Errorf("alertlog: malformed header columns %q/%q", fields[i], fields[i+1])
		}
		names = append(names, name)
	}
	return &Reader{sc: sc, detectors: names, line: 1}, nil
}

// Detectors returns the detector names from the header.
func (r *Reader) Detectors() []string {
	out := make([]string, len(r.detectors))
	copy(out, r.detectors)
	return out
}

// Next returns the next row, or io.EOF at end of input.
func (r *Reader) Next() (Record, error) {
	for r.sc.Scan() {
		r.line++
		text := r.sc.Text()
		if text == "" {
			continue
		}
		rec, err := r.parseRow(text)
		if err != nil {
			return Record{}, fmt.Errorf("alertlog: line %d: %w", r.line, err)
		}
		return rec, nil
	}
	if err := r.sc.Err(); err != nil {
		return Record{}, err
	}
	return Record{}, io.EOF
}

func (r *Reader) parseRow(text string) (Record, error) {
	fields := strings.Split(text, ",")
	if len(fields) != 1+2*len(r.detectors) {
		return Record{}, fmt.Errorf("want %d fields, got %d", 1+2*len(r.detectors), len(fields))
	}
	seq, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("bad seq %q", fields[0])
	}
	if seq != r.next {
		return Record{}, fmt.Errorf("seq %d out of order (want %d)", seq, r.next)
	}
	r.next++
	rec := Record{Seq: seq, Verdicts: make([]detector.Verdict, len(r.detectors))}
	for i := range r.detectors {
		alertField := fields[1+2*i]
		scoreField := fields[2+2*i]
		switch alertField {
		case "0":
		case "1":
			rec.Verdicts[i].Alert = true
		default:
			return Record{}, fmt.Errorf("bad alert flag %q", alertField)
		}
		score, err := strconv.ParseFloat(scoreField, 64)
		if err != nil || score < 0 {
			return Record{}, fmt.Errorf("bad score %q", scoreField)
		}
		rec.Verdicts[i].Score = score
	}
	return rec, nil
}
