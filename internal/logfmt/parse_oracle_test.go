package logfmt

import (
	"strconv"
	"strings"
	"time"
)

// The string parser: the byte parser's oracle. It was the package's first
// parser and is kept for what it is — written independently, on
// time.Parse and strings, and easy to read — now that nothing outside
// the tests calls it: FuzzParseCombinedBytes and the table tests hold
// ParseCombinedBytes to it line for line.

// ParseCombined parses one line in Apache Combined Log Format:
//
//	remote identity authuser [time] "request" status bytes "referer" "user-agent"
//
// Quoted fields may contain backslash-escaped quotes and backslashes, as
// produced by Apache's log escaping.
func ParseCombined(line string) (Entry, error) {
	var e Entry
	p := parser{s: line}
	if err := p.common(&e); err != nil {
		return Entry{}, err
	}
	ref, err := p.quoted("referer")
	if err != nil {
		return Entry{}, err
	}
	e.Referer = ref
	ua, err := p.quoted("user-agent")
	if err != nil {
		return Entry{}, err
	}
	e.UserAgent = ua
	if !p.atEnd() {
		return Entry{}, &ParseError{Offset: p.i, Reason: "trailing data after user-agent"}
	}
	return e, nil
}

// ParseCommon parses one line in Apache Common Log Format (the Combined
// format without the referer and user-agent fields).
func ParseCommon(line string) (Entry, error) {
	var e Entry
	p := parser{s: line}
	if err := p.common(&e); err != nil {
		return Entry{}, err
	}
	if !p.atEnd() {
		return Entry{}, &ParseError{Offset: p.i, Reason: "trailing data after bytes field"}
	}
	e.Referer = "-"
	e.UserAgent = "-"
	return e, nil
}

// parser is a cursor over a single log line.
type parser struct {
	s string
	i int
}

// common consumes the fields shared by Common and Combined formats.
func (p *parser) common(e *Entry) error {
	var err error
	if e.RemoteAddr, err = p.token("remote address"); err != nil {
		return err
	}
	if e.Identity, err = p.token("identity"); err != nil {
		return err
	}
	if e.AuthUser, err = p.token("auth user"); err != nil {
		return err
	}
	if e.Time, err = p.bracketedTime(); err != nil {
		return err
	}
	req, err := p.quoted("request line")
	if err != nil {
		return err
	}
	splitRequest(req, e)
	statusTok, err := p.token("status")
	if err != nil {
		return err
	}
	// Decimal fields are digits only, as in the byte parser: strconv would
	// wave through a sign.
	status, ok := atoi([]byte(statusTok))
	if !ok || status < 100 || status > 599 {
		return &ParseError{Offset: p.i, Reason: "invalid status code " + strconv.Quote(statusTok)}
	}
	e.Status = status
	sizeTok, err := p.token("bytes")
	if err != nil {
		return err
	}
	if sizeTok == "-" {
		e.Bytes = -1
	} else {
		n, ok := atoi64([]byte(sizeTok))
		if !ok {
			return &ParseError{Offset: p.i, Reason: "invalid bytes field " + strconv.Quote(sizeTok)}
		}
		e.Bytes = n
	}
	return nil
}

// splitRequest fills Method/Path/Proto from the quoted request line, or
// RawRequest when the line does not have the canonical three-part shape.
func splitRequest(req string, e *Entry) {
	sp1 := strings.IndexByte(req, ' ')
	if sp1 <= 0 {
		e.RawRequest = req
		return
	}
	sp2 := strings.LastIndexByte(req, ' ')
	if sp2 == sp1 {
		e.RawRequest = req
		return
	}
	method, path, proto := req[:sp1], req[sp1+1:sp2], req[sp2+1:]
	if !validMethod(method) || !strings.HasPrefix(proto, "HTTP/") || path == "" {
		e.RawRequest = req
		return
	}
	e.Method, e.Path, e.Proto = method, path, proto
}

func validMethod(m string) bool {
	if m == "" {
		return false
	}
	for i := 0; i < len(m); i++ {
		c := m[i]
		if c < 'A' || c > 'Z' {
			return false
		}
	}
	return true
}

func (p *parser) skipSpaces() {
	for p.i < len(p.s) && p.s[p.i] == ' ' {
		p.i++
	}
}

func (p *parser) atEnd() bool {
	p.skipSpaces()
	return p.i == len(p.s)
}

// token consumes a space-delimited field.
func (p *parser) token(what string) (string, error) {
	p.skipSpaces()
	if p.i >= len(p.s) {
		return "", &ParseError{Offset: p.i, Reason: "missing " + what}
	}
	start := p.i
	for p.i < len(p.s) && p.s[p.i] != ' ' {
		p.i++
	}
	return p.s[start:p.i], nil
}

// bracketedTime consumes "[...]" and parses the Apache timestamp inside.
func (p *parser) bracketedTime() (time.Time, error) {
	p.skipSpaces()
	if p.i >= len(p.s) || p.s[p.i] != '[' {
		return time.Time{}, &ParseError{Offset: p.i, Reason: "expected '[' opening timestamp"}
	}
	p.i++
	end := strings.IndexByte(p.s[p.i:], ']')
	if end < 0 {
		return time.Time{}, &ParseError{Offset: p.i, Reason: "unterminated timestamp"}
	}
	raw := p.s[p.i : p.i+end]
	t, err := time.Parse(ApacheTime, raw)
	// Apache's stamp is fixed-width; time.Parse also takes fractional
	// seconds, any-case months and zones of 24 hours or 60 minutes.
	if err != nil || len(raw) != len(ApacheTime) || raw[3:6] != t.Month().String()[:3] || raw[22:24] > "23" || raw[24] > '5' {
		return time.Time{}, &ParseError{Offset: p.i, Reason: "invalid timestamp " + strconv.Quote(raw)}
	}
	p.i += end + 1
	return t, nil
}

// quoted consumes a double-quoted field, handling \" and \\ escapes.
func (p *parser) quoted(what string) (string, error) {
	p.skipSpaces()
	if p.i >= len(p.s) || p.s[p.i] != '"' {
		return "", &ParseError{Offset: p.i, Reason: "expected '\"' opening " + what}
	}
	p.i++
	// Fast path: no escapes before the closing quote.
	rest := p.s[p.i:]
	if j := strings.IndexAny(rest, `"\`); j >= 0 && rest[j] == '"' {
		p.i += j + 1
		return rest[:j], nil
	}
	var sb strings.Builder
	for p.i < len(p.s) {
		c := p.s[p.i]
		switch c {
		case '"':
			p.i++
			return sb.String(), nil
		case '\\':
			if p.i+1 >= len(p.s) {
				return "", &ParseError{Offset: p.i, Reason: "dangling escape in " + what}
			}
			next := p.s[p.i+1]
			switch next {
			case '"', '\\':
				sb.WriteByte(next)
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			default:
				sb.WriteByte('\\')
				sb.WriteByte(next)
			}
			p.i += 2
		default:
			sb.WriteByte(c)
			p.i++
		}
	}
	return "", &ParseError{Offset: p.i, Reason: "unterminated " + what}
}
