// Package logfmt parses and emits Apache HTTP access logs in Common and
// Combined Log Format. It is the ingestion substrate for the whole library:
// the synthetic workload generator writes these records and the detection
// pipeline reads them back, exactly as the DSN 2018 paper's dataset was a
// set of Apache access logs for an e-commerce application.
//
// The package is allocation-conscious: parsing works on byte slices without
// regular expressions, string fields get storage that matches how long
// they are kept (see Interner: addresses and User-Agents are interned,
// request paths are carved from shared chunks), and formatting appends to
// caller-provided buffers.
package logfmt

import (
	"strconv"
	"strings"
	"time"
)

// ApacheTime is the timestamp layout used inside the square brackets of an
// Apache access-log record, e.g. "11/Mar/2018:06:25:14 +0000".
const ApacheTime = "02/Jan/2006:15:04:05 -0700"

// Entry is a single access-log record. The zero value is not a valid record;
// construct entries explicitly or via Parse functions.
//
// In an entry from a Reader (or any parse through an Interner) RemoteAddr
// and UserAgent are interned — one copy per distinct value, safe to keep
// and to key maps by, carved from a 4 KiB chunk of other addresses and
// agents that a kept one pins — while Path, RawRequest and Referer are
// carved from a chunk shared with neighbouring lines: valid forever, but
// strings.Clone one you keep for long, or it pins up to 4 KiB of request
// text. Enrichment (detector.Enricher) points UserAgent at the enricher's
// own copy, equal in content, so the per-client state that keeps an agent
// (sentinel's rotation count) pins the enricher's chunk of agents, not the
// parser's chunk of addresses.
type Entry struct {
	// RemoteAddr is the client IP address (the %h field).
	RemoteAddr string
	// Identity is the RFC 1413 identity (%l), almost always "-".
	Identity string
	// AuthUser is the authenticated user (%u), "-" when absent.
	AuthUser string
	// Time is the request timestamp (%t).
	Time time.Time
	// Method is the HTTP method of the request line, e.g. "GET". Empty when
	// the request line was malformed (see RawRequest).
	Method string
	// Path is the request target including any query string.
	Path string
	// Proto is the protocol of the request line, e.g. "HTTP/1.1".
	Proto string
	// RawRequest holds the original quoted request line only when it could
	// not be split into method, path and protocol (malformed requests that
	// typically produce a 400 status). It is empty for well-formed lines.
	RawRequest string
	// Status is the HTTP response status code (%>s).
	Status int
	// Bytes is the response size in bytes (%b); -1 represents the "-" that
	// Apache logs for zero-byte responses.
	Bytes int64
	// Referer is the Referer header ("%{Referer}i"), "-" when absent.
	// Only present in Combined Log Format.
	Referer string
	// UserAgent is the User-Agent header ("%{User-agent}i"), "-" when
	// absent. Only present in Combined Log Format.
	UserAgent string
}

// RequestLine reconstructs the quoted request-line field.
func (e *Entry) RequestLine() string {
	if e.RawRequest != "" {
		return e.RawRequest
	}
	var sb strings.Builder
	sb.Grow(len(e.Method) + len(e.Path) + len(e.Proto) + 2)
	sb.WriteString(e.Method)
	sb.WriteByte(' ')
	sb.WriteString(e.Path)
	sb.WriteByte(' ')
	sb.WriteString(e.Proto)
	return sb.String()
}

// PathOnly returns the request path with any query string removed.
func (e *Entry) PathOnly() string {
	if i := strings.IndexByte(e.Path, '?'); i >= 0 {
		return e.Path[:i]
	}
	return e.Path
}

// Query returns the raw query string (without '?'), or "" when absent.
func (e *Entry) Query() string {
	if i := strings.IndexByte(e.Path, '?'); i >= 0 {
		return e.Path[i+1:]
	}
	return ""
}

// String renders the entry in Combined Log Format.
func (e *Entry) String() string {
	return string(AppendCombined(nil, e))
}

// Equal reports whether two entries are identical field by field, with
// timestamps compared at second granularity (the resolution of the format).
func (e *Entry) Equal(o *Entry) bool {
	return e.RemoteAddr == o.RemoteAddr &&
		e.Identity == o.Identity &&
		e.AuthUser == o.AuthUser &&
		e.Time.Unix() == o.Time.Unix() &&
		e.Method == o.Method &&
		e.Path == o.Path &&
		e.Proto == o.Proto &&
		e.RawRequest == o.RawRequest &&
		e.Status == o.Status &&
		e.Bytes == o.Bytes &&
		e.Referer == o.Referer &&
		e.UserAgent == o.UserAgent
}

// sizeString renders the %b field: "-" for -1, decimal otherwise.
func sizeString(n int64) string {
	if n < 0 {
		return "-"
	}
	return strconv.FormatInt(n, 10)
}
