package logfmt

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseError describes a malformed access-log line. It records the zero-based
// byte offset where parsing failed and a short description of what was
// expected, so that operators can locate corruption in multi-gigabyte logs.
type ParseError struct {
	// Offset is the byte position in the line where parsing stopped.
	Offset int
	// Reason describes what the parser expected at Offset.
	Reason string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("logfmt: parse error at offset %d: %s", e.Offset, e.Reason)
}

// Interner gives the string fields of access-log records storage that
// matches how long they are kept, so that steady-state parsing allocates
// once per chunkBytes of text and nothing else — whatever the lines hold.
//
// Keyed, low-cardinality fields — RemoteAddr, UserAgent, Identity,
// AuthUser, and the odd method or protocol — are deduplicated through one
// bounded table: a []byte lookup in a map keyed by string does not
// allocate, and a hit returns the copy every earlier line with that value
// got, which is what detectors, sinks and ladders hold on to and key their
// maps by. A full table starts over: a table that stopped admitting would
// make every client that arrives after one flood of distinct values pay an
// allocation per field per line for the life of the process.
//
// The table's copies are carved from a kept chunk, written front to back
// like the transient one below and never reset, so a flood of one-shot
// addresses costs one allocation per chunkBytes of addresses, not one per
// address, and a start-over clears the table but leaves every string it
// handed out valid. A kept string pins its whole chunk and nothing else:
// the kept chunk holds table copies only, never request text. Once a flood
// has been evicted, each surviving client therefore holds at most one
// chunk, chunkBytes; one survivor in 256 of a flood of dotted-quad
// addresses holds about 2.6 KiB each (the "interner" case of
// TestHeldMemoryPerClient gates it), where a copy of its own would cost
// 16 B.
//
// A line costs one hash for its address, always, and one for its
// User-Agent only when that is not the agent the address's table entry
// remembers — on 5 % of the paper mix's lines and 10 % of the wide mix's.
// The line's agent bytes are compared with the remembered string by
// content — they sit in a
// fresh read buffer, so no pointer could match, and equal bytes are all
// that returning the kept copy needs — which is a memory compare of ≈ 100
// bytes, not a hash of them and a probe. Any other agent is looked up as
// before. The entry learns a new agent only on a line that admitted the
// address or the agent, where the store sits beside an allocation, and
// only if the table has not started over since the address was read: a
// client rotating among agents the table holds costs the old lookup plus
// the compare, and a write-back never adds an entry.
//
// Transient, high-cardinality fields — Path, RawRequest, a Referer other
// than "-" — are copied into an append-only chunk of their own instead.
// Nothing keeps them past the decision, a table of them is mostly entries
// nobody asks for twice, and a cache-busting query string per request
// would fill it. A chunk is written front to back once and replaced when
// the next field does not fit, never reset or rewritten, so every string
// carved from it stays valid; one that is kept pins its chunk.
//
// Fields that hardly vary reach neither: "-", the common methods and the
// HTTP protocol versions come back as constants.
//
// An Interner also caches *time.Location values per numeric zone offset,
// removing the per-line allocation time.Parse performs for non-UTC zones,
// and remembers the last date and zone it decoded: logs are time-ordered,
// so nearly every line falls on the same day as the one before it and its
// timestamp costs an addition to that day's midnight, not a calendar
// computation.
//
// Interner is not safe for concurrent use; each Reader owns one.
type Interner struct {
	m    map[string]interned
	max  int
	locs map[int]*time.Location
	// starts counts the table's start-overs.
	starts uint32

	// kept is the chunk table copies are carved from, chunk the one
	// transient fields are; see carve.
	kept, chunk strings.Builder

	// day and dayZone are the "02/Jan/2006" and "-0700" bytes of the last
	// calendar-valid timestamp decoded, midnight that day's 00:00:00 in
	// that zone. The zero value matches no line ('\x00' is not a digit).
	day      [11]byte
	dayZone  [5]byte
	midnight time.Time
}

// chunkBytes is the size of a kept or transient chunk. A field longer than
// a quarter of it is allocated on its own, so a chunk is never abandoned
// more than a quarter empty.
const chunkBytes = 4096

// NewInterner returns an interner whose table holds at most max distinct
// strings (minimum 256).
func NewInterner(max int) *Interner {
	if max < 256 {
		max = 256
	}
	return &Interner{
		m:    make(map[string]interned, 1024),
		max:  max,
		locs: make(map[int]*time.Location, 4),
	}
}

// interned is a table entry: the kept copy of a string and, when the
// string is a client address, a User-Agent that address sent ("" before
// its first; see bparser.agent for when it is replaced).
type interned struct {
	s, agent string
}

// constant returns the constant equal to b, for the few tokens nearly
// every line repeats.
func constant(b []byte) (string, bool) {
	switch string(b) { // compiler elides the conversion
	case "-":
		return "-", true
	case "GET":
		return "GET", true
	case "POST":
		return "POST", true
	case "HEAD":
		return "HEAD", true
	case "PUT":
		return "PUT", true
	case "DELETE":
		return "DELETE", true
	case "OPTIONS":
		return "OPTIONS", true
	case "PATCH":
		return "PATCH", true
	case "HTTP/1.1":
		return "HTTP/1.1", true
	case "HTTP/1.0":
		return "HTTP/1.0", true
	case "HTTP/2.0":
		return "HTTP/2.0", true
	}
	return "", false
}

// Intern returns a string equal to b: a constant for the few tokens nearly
// every line repeats, otherwise the table's copy, admitting b when it has
// none. A nil receiver allocates what is not a constant.
func (in *Interner) Intern(b []byte) string {
	if s, ok := constant(b); ok {
		return s
	}
	if in == nil {
		return string(b)
	}
	e, _ := in.entry(b)
	return e.s
}

// entry returns b's table entry and whether it was admitted just now.
func (in *Interner) entry(b []byte) (interned, bool) {
	if e, ok := in.m[string(b)]; ok {
		return e, false
	}
	return in.admit(b), true
}

// admit adds b to the table, a copy carved from the kept chunk, and
// returns its entry. Kept out of entry, which a hit leaves small enough to
// inline into the per-line address lookup.
func (in *Interner) admit(b []byte) interned {
	if len(in.m) >= in.max {
		clear(in.m) // start over; strings already handed out stay valid
		in.starts++
	}
	e := interned{s: carve(&in.kept, b)}
	in.m[e.s] = e
	return e
}

// transient returns a copy of b carved from the transient chunk, "-" as
// the constant. A nil receiver allocates. Small enough to inline into the
// field parsers, so a field costs one call, carve's.
func (in *Interner) transient(b []byte) string {
	if string(b) == "-" {
		return "-"
	}
	if in == nil {
		return string(b)
	}
	return carve(&in.chunk, b)
}

// carve returns a copy of b written at the end of chunk c, which is
// replaced by a fresh one when b does not fit. A b longer than a quarter
// chunk is allocated on its own, so a chunk is never abandoned more than a
// quarter empty.
func carve(c *strings.Builder, b []byte) string {
	if len(b) > chunkBytes/4 {
		return string(b)
	}
	if c.Cap()-c.Len() < len(b) {
		*c = strings.Builder{}
		c.Grow(chunkBytes)
	}
	start := c.Len()
	c.Write(b)
	return c.String()[start:]
}

// location returns a cached fixed-offset zone for the given offset in
// seconds east of UTC.
func (in *Interner) location(offset int) *time.Location {
	if offset == 0 {
		return time.UTC
	}
	if in == nil {
		return time.FixedZone("", offset)
	}
	if loc, ok := in.locs[offset]; ok {
		return loc
	}
	loc := time.FixedZone("", offset)
	in.locs[offset] = loc
	return loc
}

// ParseCombinedBytes parses one line in Apache Combined Log Format into *e:
//
//	remote identity authuser [time] "request" status bytes "referer" "user-agent"
//
// Quoted fields may contain backslash-escaped quotes and backslashes, as
// produced by Apache's log escaping. Steady-state parsing does not
// allocate: the timestamp is decoded without time.Parse and string fields
// get their storage from in (which may be nil, to allocate each one). On
// error the contents of *e are unspecified. Fields of *e left over from a
// previous record are fully overwritten, so one Entry can be reused across
// calls.
func ParseCombinedBytes(line []byte, e *Entry, in *Interner) error {
	var p bparser // assigned field by field: a literal is built aside and copied
	p.s, p.in, p.esc = line, in, bytes.IndexByte(line, '\\') >= 0
	if err := p.common(e); err != nil {
		return err
	}
	ref, err := p.quotedRaw("referer")
	if err != nil {
		return err
	}
	ua, err := p.quotedRaw("user-agent")
	if err != nil {
		return err
	}
	if !p.atEnd() {
		return &ParseError{Offset: p.i, Reason: "trailing data after user-agent"}
	}
	e.Referer = in.transient(ref)
	e.UserAgent = p.agent(ua)
	return nil
}

// bparser is the []byte twin of the string parser (the tests' oracle); it
// shares the grammar but takes its string results from an Interner and
// decodes the timestamp manually. Its scanning loops work on local copies
// of s and i, which the compiler keeps in registers, and store i back once.
type bparser struct {
	s  []byte
	i  int
	in *Interner
	// esc reports a backslash anywhere in the line: without one no quoted
	// field can hold an escape, and each costs one closing-quote search.
	esc bool
	// client is the address's table entry, which remembers an agent; fresh
	// reports that this line admitted it, starts the table's start-over
	// count when it was read.
	client interned
	fresh  bool
	starts uint32
}

func (p *bparser) common(e *Entry) error {
	var err error
	if e.RemoteAddr, err = p.address(); err != nil {
		return err
	}
	// Identity and auth user are "-" on nearly every line (99.3 % of the
	// paper mix, all of the wide mix): taken as the constants when the
	// address is followed by exactly " - - ", as the token scan would.
	if rest := p.s[p.i:]; len(rest) >= 5 && string(rest[:5]) == " - - " {
		e.Identity, e.AuthUser = "-", "-"
		p.i += 4
	} else {
		if e.Identity, err = p.token("identity"); err != nil {
			return err
		}
		if e.AuthUser, err = p.token("auth user"); err != nil {
			return err
		}
	}
	if e.Time, err = p.bracketedTime(); err != nil {
		return err
	}
	req, err := p.quotedRaw("request line")
	if err != nil {
		return err
	}
	p.splitRequest(req, e)
	statusTok, err := p.tokenRaw("status")
	if err != nil {
		return err
	}
	status, ok := atoi(statusTok)
	if !ok || status < 100 || status > 599 {
		return &ParseError{Offset: p.i, Reason: "invalid status code " + strconv.Quote(string(statusTok))}
	}
	e.Status = status
	sizeTok, err := p.tokenRaw("bytes")
	if err != nil {
		return err
	}
	if len(sizeTok) == 1 && sizeTok[0] == '-' {
		e.Bytes = -1
	} else {
		n, ok := atoi64(sizeTok)
		if !ok {
			return &ParseError{Offset: p.i, Reason: "invalid bytes field " + strconv.Quote(string(sizeTok))}
		}
		e.Bytes = n
	}
	return nil
}

// splitRequest fills Method/Path/Proto from the quoted request line, or
// RawRequest when the line does not have the canonical three-part shape.
// The path (or the raw request) is transient; method and protocol are constants in
// all but hand-made requests.
func (p *bparser) splitRequest(req []byte, e *Entry) {
	e.Method, e.Path, e.Proto, e.RawRequest = "", "", "", ""
	// "GET <path> HTTP/1.1" (99.8 % of the paper mix's lines) is split by
	// its fixed ends: the first space is the one after GET and the last the
	// one before HTTP/1.1 (which holds none), and the path is non-empty.
	if n := len(req); n > len("GET  HTTP/1.1") && string(req[:4]) == "GET " && string(req[n-9:]) == " HTTP/1.1" {
		e.Method, e.Path, e.Proto = "GET", p.in.transient(req[4:n-9]), "HTTP/1.1"
		return
	}
	sp1 := bytes.IndexByte(req, ' ')
	if sp1 <= 0 {
		e.RawRequest = p.in.transient(req)
		return
	}
	sp2 := bytes.LastIndexByte(req, ' ')
	if sp2 == sp1 {
		e.RawRequest = p.in.transient(req)
		return
	}
	method, path, proto := req[:sp1], req[sp1+1:sp2], req[sp2+1:]
	if !validMethodBytes(method) || !hasHTTPPrefix(proto) || len(path) == 0 {
		e.RawRequest = p.in.transient(req)
		return
	}
	e.Method = p.in.Intern(method)
	e.Path = p.in.transient(path)
	e.Proto = p.in.Intern(proto)
}

func validMethodBytes(m []byte) bool {
	if len(m) == 0 {
		return false
	}
	for _, c := range m {
		if c < 'A' || c > 'Z' {
			return false
		}
	}
	return true
}

func hasHTTPPrefix(b []byte) bool {
	return len(b) >= 5 && b[0] == 'H' && b[1] == 'T' && b[2] == 'T' && b[3] == 'P' && b[4] == '/'
}

func atoi(b []byte) (int, bool) {
	n, ok := atoi64(b)
	return int(n), ok
}

func atoi64(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// skipSpaces returns the first index at or after i that is not a space.
func skipSpaces(s []byte, i int) int {
	for i < len(s) && s[i] == ' ' {
		i++
	}
	return i
}

func (p *bparser) atEnd() bool {
	p.i = skipSpaces(p.s, p.i)
	return p.i == len(p.s)
}

// tokenRaw consumes a space-delimited field without interning it.
func (p *bparser) tokenRaw(what string) ([]byte, error) {
	s := p.s
	i := skipSpaces(s, p.i)
	if i >= len(s) {
		p.i = i
		return nil, &ParseError{Offset: i, Reason: "missing " + what}
	}
	start := i
	for i < len(s) && s[i] != ' ' {
		i++
	}
	p.i = i
	return s[start:i], nil
}

func (p *bparser) token(what string) (string, error) {
	b, err := p.tokenRaw(what)
	if err != nil {
		return "", err
	}
	return p.in.Intern(b), nil
}

// address consumes the client address and keeps its table entry in
// p.client, so the line's agent can be checked against the one it
// remembers.
func (p *bparser) address() (string, error) {
	b, err := p.tokenRaw("remote address")
	if err != nil {
		return "", err
	}
	if s, ok := constant(b); ok {
		return s, nil
	}
	if p.in == nil {
		return string(b), nil
	}
	p.client, p.fresh = p.in.entry(b)
	p.starts = p.in.starts
	return p.client.s, nil
}

// agent returns the line's User-Agent b. One equal to the agent the
// address's entry remembers costs a compare; any other is interned, and
// the entry remembers it when this line admitted the address or the agent
// and the table has not started over since the address was read.
func (p *bparser) agent(b []byte) string {
	c := p.client
	if c.s == "" { // no entry: a constant address, or no Interner
		return p.in.Intern(b)
	}
	if string(b) == c.agent {
		return c.agent
	}
	s, ok := constant(b)
	admitted := false
	if !ok {
		var e interned
		e, admitted = p.in.entry(b)
		s = e.s
	}
	if (p.fresh || admitted) && p.in.starts == p.starts {
		p.in.m[c.s] = interned{s: c.s, agent: s}
	}
	return s
}

var monthDays = [...]string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}

// stampLen is the width of an Apache timestamp, 02/Jan/2006:15:04:05 -0700.
const stampLen = 26

// bracketedTime consumes "[...]" and decodes the fixed-width Apache
// timestamp (02/Jan/2006:15:04:05 -0700) without time.Parse. A valid stamp
// holds no ']', so when the byte stampLen on is one the stamp is decoded
// without searching for it; the search is left to build the error of a
// line that is not so.
func (p *bparser) bracketedTime() (time.Time, error) {
	i := skipSpaces(p.s, p.i)
	p.i = i
	if i >= len(p.s) || p.s[i] != '[' {
		return time.Time{}, &ParseError{Offset: i, Reason: "expected '[' opening timestamp"}
	}
	p.i++
	rest := p.s[p.i:]
	if len(rest) > stampLen && rest[stampLen] == ']' {
		if t, ok := p.parseApacheTime(rest[:stampLen]); ok {
			p.i += stampLen + 1
			return t, nil
		}
	}
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return time.Time{}, &ParseError{Offset: p.i, Reason: "unterminated timestamp"}
	}
	return time.Time{}, &ParseError{Offset: p.i, Reason: "invalid timestamp " + strconv.Quote(string(rest[:end]))}
}

// parseApacheTime decodes "02/Jan/2006:15:04:05 -0700". The layout is
// fixed-width, so offsets are constants.
func (p *bparser) parseApacheTime(b []byte) (time.Time, bool) {
	if len(b) != stampLen || b[2] != '/' || b[6] != '/' || b[11] != ':' ||
		b[14] != ':' || b[17] != ':' || b[20] != ' ' {
		return time.Time{}, false
	}
	hour, ok1 := twoDigits(b[12], b[13])
	min, ok2 := twoDigits(b[15], b[16])
	sec, ok3 := twoDigits(b[18], b[19])
	if !(ok1 && ok2 && ok3) || hour > 23 || min > 59 || sec > 59 {
		return time.Time{}, false
	}
	midnight, ok := p.in.dayStart(b[0:11], b[21:26])
	if !ok {
		return time.Time{}, false
	}
	// Zones are fixed offsets, so the day has no gaps: midnight plus the
	// time of day is the instant time.Date would have built.
	return midnight.Add(time.Duration(hour*3600+min*60+sec) * time.Second), true
}

// twoDigits decodes two ASCII digits, as atoi does a two-byte field.
func twoDigits(hi, lo byte) (int, bool) {
	h, l := hi-'0', lo-'0'
	return int(h)*10 + int(l), h <= 9 && l <= 9
}

// dayStart returns 00:00:00 of date ("02/Jan/2006") in zone ("-0700"). A
// repeat of the last date and zone decoded is answered from memory; only
// calendar-valid days are remembered, so a rejected date neither hits nor
// replaces the memo. A nil receiver decodes every time.
func (in *Interner) dayStart(date, zone []byte) (time.Time, bool) {
	if in != nil && [11]byte(date) == in.day && [5]byte(zone) == in.dayZone {
		return in.midnight, true
	}
	day, ok1 := atoi(date[0:2])
	year, ok2 := atoi(date[7:11])
	if !(ok1 && ok2) {
		return time.Time{}, false
	}
	month := 0
	for i, m := range &monthDays {
		if date[3] == m[0] && date[4] == m[1] && date[5] == m[2] {
			month = i + 1
			break
		}
	}
	if month == 0 || day < 1 || day > 31 {
		return time.Time{}, false
	}
	sign := 0
	switch zone[0] {
	case '+':
		sign = 1
	case '-':
		sign = -1
	default:
		return time.Time{}, false
	}
	zh, ok3 := atoi(zone[1:3])
	zm, ok4 := atoi(zone[3:5])
	if !ok3 || !ok4 || zh > 23 || zm > 59 {
		return time.Time{}, false
	}
	offset := sign * (zh*3600 + zm*60)
	t := time.Date(year, time.Month(month), day, 0, 0, 0, 0, in.location(offset))
	// time.Date normalizes calendar-invalid dates (31/Feb → 3/Mar);
	// time.Parse (the test oracle's parser) rejects them, so reject here too. Only
	// the day can overflow — every other component is range-checked.
	if t.Day() != day {
		return time.Time{}, false
	}
	if in != nil {
		in.day, in.dayZone, in.midnight = [11]byte(date), [5]byte(zone), t
	}
	return t, true
}

// quotedRaw consumes a double-quoted field. The no-escape fast path
// returns a sub-slice of the input; the escape path allocates.
func (p *bparser) quotedRaw(what string) ([]byte, error) {
	s := p.s
	i := skipSpaces(s, p.i)
	if i >= len(s) || s[i] != '"' {
		p.i = i
		return nil, &ParseError{Offset: i, Reason: "expected '\"' opening " + what}
	}
	i++
	p.i = i
	rest := s[i:]
	// Fast path: no escape before the closing quote.
	field := rest
	end := bytes.IndexByte(rest, '"')
	if end >= 0 {
		field = rest[:end]
	}
	if p.esc && bytes.IndexByte(field, '\\') >= 0 {
		return p.quotedSlow(what)
	}
	if end < 0 {
		return nil, &ParseError{Offset: len(s), Reason: "unterminated " + what}
	}
	p.i = i + end + 1
	return field, nil
}

// quotedSlow handles backslash escapes; p.i points at the first byte after
// the opening quote.
func (p *bparser) quotedSlow(what string) ([]byte, error) {
	var buf []byte
	for p.i < len(p.s) {
		c := p.s[p.i]
		switch c {
		case '"':
			p.i++
			return buf, nil
		case '\\':
			if p.i+1 >= len(p.s) {
				return nil, &ParseError{Offset: p.i, Reason: "dangling escape in " + what}
			}
			next := p.s[p.i+1]
			switch next {
			case '"', '\\':
				buf = append(buf, next)
			case 'n':
				buf = append(buf, '\n')
			case 't':
				buf = append(buf, '\t')
			default:
				buf = append(buf, '\\', next)
			}
			p.i += 2
		default:
			buf = append(buf, c)
			p.i++
		}
	}
	return nil, &ParseError{Offset: p.i, Reason: "unterminated " + what}
}
