package logfmt

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// combinedLine renders one well-formed Combined Log Format line with
// enough variation to exercise the interner and field parsing.
func combinedLine(i int) string {
	t := time.Date(2017, 3, 11, 9, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second)
	return fmt.Sprintf(`10.0.%d.%d - - [%s] "GET /catalog/item/%d HTTP/1.1" 200 %d "http://shop.example/catalog" "Mozilla/5.0 (X11; Linux x86_64) variant-%d"`,
		i%16, i%251, t.Format("02/Jan/2006:15:04:05 -0700"), i%97, 512+i%2048, i%7)
}

// buildLog renders n lines, sprinkling in the irregularities the reader
// contract covers: empty lines, CRLF terminators, and (if bad is true)
// malformed lines.
func buildLog(n int, bad bool) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		switch {
		case i%53 == 17:
			sb.WriteString("\n") // empty line, skipped silently
		case i%41 == 13:
			sb.WriteString(combinedLine(i))
			sb.WriteString("\r\n") // CRLF terminator
		case bad && i%67 == 29:
			sb.WriteString("not a log line at all\n")
		default:
			sb.WriteString(combinedLine(i))
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// drain consumes every entry plus the terminal error from either reader
// implementation via the shared NextInto shape.
type entrySource interface {
	NextInto(*Entry) error
	Skipped() int
	Lines() int
}

func drain(src entrySource) (entries []Entry, skipped, lines int, err error) {
	var e Entry
	for {
		if err = src.NextInto(&e); err != nil {
			return entries, src.Skipped(), src.Lines(), err
		}
		entries = append(entries, e)
	}
}

// The core metamorphic property: for any input, policy, worker count,
// and chunk size, ParallelReader's entry stream, counters, and terminal
// error are indistinguishable from Reader's.
func TestParallelReaderEquivalence(t *testing.T) {
	inputs := map[string]string{
		"clean":             buildLog(600, false),
		"with-bad-lines":    buildLog(600, true),
		"empty":             "",
		"only-empty-lines":  "\n\n\r\n\n",
		"single-line-no-nl": combinedLine(1),
		"final-line-no-nl":  strings.TrimSuffix(buildLog(50, false), "\n"),
		"bad-final-line":    buildLog(50, false) + "garbage with no newline",
		"bad-first-line":    "garbage\n" + buildLog(20, false),
		"all-bad":           "junk one\njunk two\njunk three\n",
		"crlf-final-line":   combinedLine(2) + "\r",
	}
	for name, input := range inputs {
		for _, policy := range []ErrPolicy{Strict, Skip} {
			ref, refSkip, refLines, refErr := drain(NewReader(strings.NewReader(input), ReaderConfig{Policy: policy}))
			for _, workers := range []int{1, 2, 4} {
				for _, chunk := range []int{16, 64, 1 << 20} {
					t.Run(fmt.Sprintf("%s/policy=%d/w=%d/c=%d", name, policy, workers, chunk), func(t *testing.T) {
						pr := NewParallelReader(strings.NewReader(input), ParallelConfig{
							Policy: policy, Workers: workers, ChunkBytes: chunk,
						})
						got, gotSkip, gotLines, gotErr := drain(pr)
						if len(got) != len(ref) {
							t.Fatalf("entries = %d, want %d", len(got), len(ref))
						}
						for i := range got {
							if got[i] != ref[i] {
								t.Fatalf("entry %d diverges:\n got %+v\nwant %+v", i, got[i], ref[i])
							}
						}
						if gotSkip != refSkip {
							t.Errorf("Skipped = %d, want %d", gotSkip, refSkip)
						}
						if gotLines != refLines {
							t.Errorf("Lines = %d, want %d", gotLines, refLines)
						}
						if fmt.Sprint(gotErr) != fmt.Sprint(refErr) {
							t.Errorf("terminal error = %v, want %v", gotErr, refErr)
						}
						var pe *ParseError
						if errors.As(refErr, &pe) != errors.As(gotErr, &pe) {
							t.Errorf("ParseError unwrap mismatch: ref %v vs got %v", refErr, gotErr)
						}
					})
				}
			}
		}
	}
}

// Terminal errors are sticky, exactly like Reader's.
func TestParallelReaderStickyError(t *testing.T) {
	pr := NewParallelReader(strings.NewReader("garbage\n"), ParallelConfig{Workers: 2})
	var e Entry
	err := pr.NextInto(&e)
	if err == nil {
		t.Fatal("expected a parse error")
	}
	if err2 := pr.NextInto(&e); err2 != err {
		t.Fatalf("second NextInto = %v, want sticky %v", err2, err)
	}
}

// errAfterReader yields data then fails with errBoom, modelling a
// mid-stream I/O failure.
type errAfterReader struct {
	r    io.Reader
	done bool
}

var errBoom = errors.New("disk detached")

func (e *errAfterReader) Read(p []byte) (int, error) {
	if e.done {
		return 0, errBoom
	}
	n, err := e.r.Read(p)
	if err == io.EOF {
		e.done = true
		return n, nil
	}
	return n, err
}

// A mid-stream read failure delivers the already-buffered entries first,
// then surfaces the underlying error — the scanner contract.
func TestParallelReaderReadError(t *testing.T) {
	input := buildLog(40, false)
	ref, _, _, _ := drain(NewReader(strings.NewReader(input), ReaderConfig{}))
	pr := NewParallelReader(&errAfterReader{r: strings.NewReader(input)}, ParallelConfig{Workers: 2, ChunkBytes: 64})
	got, _, _, err := drain(pr)
	if !errors.Is(err, errBoom) {
		t.Fatalf("terminal error = %v, want %v", err, errBoom)
	}
	if len(got) != len(ref) {
		t.Fatalf("entries before error = %d, want %d", len(got), len(ref))
	}
}

// A line over MaxLineBytes fails with bufio.ErrTooLong, like the
// scanner-backed Reader.
func TestParallelReaderLineTooLong(t *testing.T) {
	long := strings.Repeat("x", 4096)
	for name, input := range map[string]string{
		"unterminated": buildLog(10, false) + long,
		"terminated":   buildLog(10, false) + long + "\n" + combinedLine(3) + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			pr := NewParallelReader(strings.NewReader(input), ParallelConfig{
				Workers: 2, ChunkBytes: 32, MaxLineBytes: 1024,
			})
			_, _, _, err := drain(pr)
			if !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("terminal error = %v, want bufio.ErrTooLong", err)
			}
		})
	}
}

// Close mid-stream releases the goroutines and parks the reader at a
// terminal state without needing to drain the input.
func TestParallelReaderCloseMidStream(t *testing.T) {
	input := buildLog(5000, false)
	pr := NewParallelReader(strings.NewReader(input), ParallelConfig{Workers: 4, ChunkBytes: 256})
	var e Entry
	for i := 0; i < 10; i++ {
		if err := pr.NextInto(&e); err != nil {
			t.Fatalf("NextInto %d: %v", i, err)
		}
	}
	if err := pr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := pr.NextInto(&e); err != io.EOF {
		t.Fatalf("NextInto after Close = %v, want io.EOF", err)
	}
	if err := pr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// Entries delivered into the caller's *Entry must not be clobbered by
// slab reuse: field strings are interned copies and the Entry itself is
// copied out of the chunk slab.
func TestParallelReaderEntriesStable(t *testing.T) {
	input := buildLog(300, false)
	pr := NewParallelReader(bytes.NewReader([]byte(input)), ParallelConfig{Workers: 2, ChunkBytes: 128})
	got, _, _, err := drain(pr)
	if err != io.EOF {
		t.Fatalf("terminal error = %v", err)
	}
	ref, _, _, _ := drain(NewReader(strings.NewReader(input), ReaderConfig{}))
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("entry %d mutated after delivery:\n got %+v\nwant %+v", i, got[i], ref[i])
		}
	}
}
