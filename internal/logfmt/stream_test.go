package logfmt

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

const goodLine = `10.0.0.1 - - [11/Mar/2018:06:25:14 +0000] "GET / HTTP/1.1" 200 5 "-" "-"`

func TestReaderStrictAbortsOnCorruption(t *testing.T) {
	input := goodLine + "\n" + "CORRUPT LINE\n" + goodLine + "\n"
	r := NewReader(strings.NewReader(input), ReaderConfig{Policy: Strict})
	if _, err := r.Next(); err != nil {
		t.Fatalf("first line: %v", err)
	}
	_, err := r.Next()
	if err == nil {
		t.Fatal("expected error on corrupt line")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not wrap *ParseError", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not identify the line number", err)
	}
	// The reader is poisoned after a strict failure.
	if _, err2 := r.Next(); !errors.Is(err2, err) {
		t.Errorf("subsequent Next returned %v, want the sticky error", err2)
	}
}

func TestReaderSkipCountsCorruption(t *testing.T) {
	input := strings.Join([]string{
		goodLine,
		"CORRUPT",
		"", // blank lines are ignored silently
		goodLine,
		"ALSO CORRUPT",
	}, "\n")
	r := NewReader(strings.NewReader(input), ReaderConfig{Policy: Skip})
	var n int
	for {
		_, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		n++
	}
	if n != 2 {
		t.Errorf("decoded %d entries, want 2", n)
	}
	if r.Skipped() != 2 {
		t.Errorf("Skipped() = %d, want 2", r.Skipped())
	}
}

func TestWriterRoundTrip(t *testing.T) {
	entries := []Entry{
		{
			RemoteAddr: "10.0.0.1", Identity: "-", AuthUser: "-",
			Time:   time.Date(2018, 3, 11, 6, 0, 0, 0, time.UTC),
			Method: "GET", Path: "/", Proto: "HTTP/1.1",
			Status: 200, Bytes: 100, Referer: "-", UserAgent: "x",
		},
		{
			RemoteAddr: "10.0.0.2", Identity: "-", AuthUser: "u",
			Time:   time.Date(2018, 3, 11, 6, 0, 1, 0, time.UTC),
			Method: "POST", Path: "/__verify", Proto: "HTTP/1.1",
			Status: 204, Bytes: -1, Referer: "/", UserAgent: `a "b"`,
		},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range entries {
		if err := w.Write(&entries[i]); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if w.Count() != 2 {
		t.Errorf("Count = %d, want 2", w.Count())
	}

	r := NewReader(&buf, ReaderConfig{})
	for i := range entries {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("read back %d: %v", i, err)
		}
		if !got.Equal(&entries[i]) {
			t.Errorf("entry %d mismatch:\n got  %+v\n want %+v", i, got, entries[i])
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestReaderHugeLineRejected(t *testing.T) {
	long := goodLine + strings.Repeat("x", 2048)
	r := NewReader(strings.NewReader(long), ReaderConfig{MaxLineBytes: 256})
	if _, err := r.Next(); err == nil {
		t.Error("expected error for oversized line")
	}
}

func TestStatusLabel(t *testing.T) {
	tests := []struct {
		code int
		want string
	}{
		{200, "200 (OK)"},
		{204, "204 (No content)"},
		{302, "302 (Found)"},
		{304, "304 (Not modified)"},
		{400, "400 (Bad request)"},
		{403, "403 (Forbidden)"},
		{404, "404 (Not found)"},
		{500, "500 (Internal Server Error)"},
		{418, "418"},
	}
	for _, tt := range tests {
		if got := StatusLabel(tt.code); got != tt.want {
			t.Errorf("StatusLabel(%d) = %q, want %q", tt.code, got, tt.want)
		}
	}
}

// The paper's Tables 3 and 4 break alerts down by these status codes.
func TestPaperStatusesAllLabelled(t *testing.T) {
	for _, code := range []int{
		StatusOK, StatusFound, StatusNoContent, StatusBadRequest,
		StatusNotModified, StatusNotFound, StatusInternalServerError, StatusForbidden,
	} {
		label := StatusLabel(code)
		if !strings.Contains(label, "(") {
			t.Errorf("paper status %d has no name: %q", code, label)
		}
	}
}
