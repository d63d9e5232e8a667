package logfmt

import (
	"bufio"
	"fmt"
	"io"
)

// ErrPolicy controls how a Reader reacts to malformed lines.
type ErrPolicy int

const (
	// Strict aborts reading at the first malformed line.
	Strict ErrPolicy = iota + 1
	// Skip counts malformed lines and continues with the next one.
	Skip
)

// Reader streams Entry values from an access-log file.
//
// Real log files contain the occasional truncated or corrupt line (log
// rotation mid-write, disk pressure, multi-writer interleaving), so Reader
// supports a skip policy that counts malformed lines rather than failing.
type Reader struct {
	sc       *bufio.Scanner
	policy   ErrPolicy
	lineNo   int
	badLines int
	err      error
	intern   *Interner
}

// ReaderConfig parameterises NewReader.
type ReaderConfig struct {
	// Policy selects the malformed-line behaviour. Defaults to Strict.
	Policy ErrPolicy
	// MaxLineBytes bounds a single line. Defaults to 1 MiB.
	MaxLineBytes int
}

// NewReader wraps r for streaming Combined Log Format decoding.
func NewReader(r io.Reader, cfg ReaderConfig) *Reader {
	if cfg.Policy == 0 {
		cfg.Policy = Strict
	}
	if cfg.MaxLineBytes <= 0 {
		cfg.MaxLineBytes = 1 << 20
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), cfg.MaxLineBytes)
	return &Reader{sc: sc, policy: cfg.Policy, intern: NewInterner(1 << 16)}
}

// Next returns the next well-formed entry. It returns io.EOF when the input
// is exhausted, or a *ParseError (wrapped with line position) under the
// Strict policy.
func (r *Reader) Next() (Entry, error) {
	var e Entry
	if err := r.NextInto(&e); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// NextInto decodes the next well-formed entry into *e, the allocation-free
// counterpart of Next: the line buffer is not copied, string fields take
// their storage from the reader's Interner (one allocation per 4 KiB of
// request text or of new addresses and agents), and *e may be reused call
// after call. On a non-nil error the contents of *e are unspecified.
func (r *Reader) NextInto(e *Entry) error {
	if r.err != nil {
		return r.err
	}
	for r.sc.Scan() {
		r.lineNo++
		line := r.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		err := ParseCombinedBytes(line, e, r.intern)
		if err == nil {
			return nil
		}
		if r.policy == Strict {
			r.err = fmt.Errorf("line %d: %w", r.lineNo, err)
			return r.err
		}
		r.badLines++
	}
	if err := r.sc.Err(); err != nil {
		r.err = err
		return err
	}
	r.err = io.EOF
	return io.EOF
}

// Skipped reports how many malformed lines were dropped under the Skip
// policy.
func (r *Reader) Skipped() int { return r.badLines }

// Lines reports how many lines have been consumed so far.
func (r *Reader) Lines() int { return r.lineNo }

// Writer streams entries to an underlying writer in Combined Log Format.
// It reuses an internal buffer; Flush must be called before the underlying
// writer is closed.
type Writer struct {
	bw  *bufio.Writer
	buf []byte
	n   int64
}

// NewWriter returns a Writer emitting Combined Log Format lines to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 256*1024), buf: make([]byte, 0, 512)}
}

// Write appends one record. Entries are written in call order.
func (w *Writer) Write(e *Entry) error {
	w.buf = AppendCombined(w.buf[:0], e)
	w.buf = append(w.buf, '\n')
	if _, err := w.bw.Write(w.buf); err != nil {
		return fmt.Errorf("logfmt: write entry: %w", err)
	}
	w.n++
	return nil
}

// Count reports how many entries have been written.
func (w *Writer) Count() int64 { return w.n }

// Flush drains buffered output to the underlying writer.
func (w *Writer) Flush() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("logfmt: flush: %w", err)
	}
	return nil
}
