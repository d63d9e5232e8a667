package logfmt

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func mustTime(t *testing.T, s string) time.Time {
	t.Helper()
	ts, err := time.Parse(ApacheTime, s)
	if err != nil {
		t.Fatalf("parse time %q: %v", s, err)
	}
	return ts
}

func TestParseCombined(t *testing.T) {
	tests := []struct {
		name string
		give string
		want Entry
	}{
		{
			name: "typical GET",
			give: `10.1.2.3 - - [11/Mar/2018:06:25:14 +0000] "GET /product/17 HTTP/1.1" 200 52344 "/category/3" "Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0"`,
			want: Entry{
				RemoteAddr: "10.1.2.3", Identity: "-", AuthUser: "-",
				Method: "GET", Path: "/product/17", Proto: "HTTP/1.1",
				Status: 200, Bytes: 52344,
				Referer:   "/category/3",
				UserAgent: "Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0",
			},
		},
		{
			name: "dash bytes and dash referer",
			give: `172.16.0.9 - - [11/Mar/2018:06:25:14 +0000] "POST /__verify HTTP/1.1" 204 - "-" "curl/7.58.0"`,
			want: Entry{
				RemoteAddr: "172.16.0.9", Identity: "-", AuthUser: "-",
				Method: "POST", Path: "/__verify", Proto: "HTTP/1.1",
				Status: 204, Bytes: -1, Referer: "-", UserAgent: "curl/7.58.0",
			},
		},
		{
			name: "auth user present",
			give: `10.112.0.4 - ota-partner-7 [12/Mar/2018:09:00:01 +0000] "GET /api/price/5 HTTP/1.1" 200 431 "-" "Java/1.8.0_151"`,
			want: Entry{
				RemoteAddr: "10.112.0.4", Identity: "-", AuthUser: "ota-partner-7",
				Method: "GET", Path: "/api/price/5", Proto: "HTTP/1.1",
				Status: 200, Bytes: 431, Referer: "-", UserAgent: "Java/1.8.0_151",
			},
		},
		{
			name: "escaped quote inside user agent",
			give: `10.0.0.1 - - [11/Mar/2018:06:25:14 +0000] "GET / HTTP/1.1" 200 5 "-" "weird \"agent\" v1"`,
			want: Entry{
				RemoteAddr: "10.0.0.1", Identity: "-", AuthUser: "-",
				Method: "GET", Path: "/", Proto: "HTTP/1.1",
				Status: 200, Bytes: 5, Referer: "-", UserAgent: `weird "agent" v1`,
			},
		},
		{
			name: "malformed request line preserved raw",
			give: `10.0.0.1 - - [11/Mar/2018:06:25:14 +0000] "\x16\x03\x01" 400 226 "-" "-"`,
			want: Entry{
				RemoteAddr: "10.0.0.1", Identity: "-", AuthUser: "-",
				RawRequest: `\x16\x03\x01`,
				Status:     400, Bytes: 226, Referer: "-", UserAgent: "-",
			},
		},
		{
			name: "query string kept in path",
			give: `10.0.0.1 - - [11/Mar/2018:06:25:14 +0000] "GET /search?q=flights+paris HTTP/1.1" 200 31000 "/" "UA"`,
			want: Entry{
				RemoteAddr: "10.0.0.1", Identity: "-", AuthUser: "-",
				Method: "GET", Path: "/search?q=flights+paris", Proto: "HTTP/1.1",
				Status: 200, Bytes: 31000, Referer: "/", UserAgent: "UA",
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ParseCombined(tt.give)
			if err != nil {
				t.Fatalf("ParseCombined(%q) error: %v", tt.give, err)
			}
			tt.want.Time = mustTime(t, strings.TrimSuffix(strings.SplitN(tt.give, "[", 2)[1][:26], "]"))
			if !got.Equal(&tt.want) {
				t.Errorf("ParseCombined mismatch:\n got  %+v\n want %+v", got, tt.want)
			}
		})
	}
}

func TestParseCombinedErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{"empty", ""},
		{"truncated after ip", "10.0.0.1"},
		{"missing bracket", `10.0.0.1 - - 11/Mar/2018:06:25:14 +0000 "GET / HTTP/1.1" 200 5 "-" "-"`},
		{"unterminated time", `10.0.0.1 - - [11/Mar/2018:06:25:14 +0000 "GET / HTTP/1.1" 200 5 "-" "-"`},
		{"bad time", `10.0.0.1 - - [not-a-time] "GET / HTTP/1.1" 200 5 "-" "-"`},
		{"unterminated request", `10.0.0.1 - - [11/Mar/2018:06:25:14 +0000] "GET / HTTP/1.1 200 5 "-" "-"`},
		{"status not numeric", `10.0.0.1 - - [11/Mar/2018:06:25:14 +0000] "GET / HTTP/1.1" two 5 "-" "-"`},
		{"status out of range", `10.0.0.1 - - [11/Mar/2018:06:25:14 +0000] "GET / HTTP/1.1" 999 5 "-" "-"`},
		{"negative bytes", `10.0.0.1 - - [11/Mar/2018:06:25:14 +0000] "GET / HTTP/1.1" 200 -5 "-" "-"`},
		{"missing user agent", `10.0.0.1 - - [11/Mar/2018:06:25:14 +0000] "GET / HTTP/1.1" 200 5 "-"`},
		{"trailing garbage", `10.0.0.1 - - [11/Mar/2018:06:25:14 +0000] "GET / HTTP/1.1" 200 5 "-" "-" extra`},
		{"dangling escape", `10.0.0.1 - - [11/Mar/2018:06:25:14 +0000] "GET / HTTP/1.1" 200 5 "-" "abc\`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParseCombined(tt.give)
			if err == nil {
				t.Fatalf("ParseCombined(%q) succeeded, want error", tt.give)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v is not a *ParseError", err)
			}
			if pe.Error() == "" {
				t.Error("ParseError has empty message")
			}
		})
	}
}

func TestParseCommon(t *testing.T) {
	line := `10.0.0.1 - - [11/Mar/2018:06:25:14 +0000] "GET / HTTP/1.1" 200 5`
	e, err := ParseCommon(line)
	if err != nil {
		t.Fatalf("ParseCommon: %v", err)
	}
	if e.Referer != "-" || e.UserAgent != "-" {
		t.Errorf("common format should default referer/UA to '-', got %q %q", e.Referer, e.UserAgent)
	}
	if _, err := ParseCommon(line + ` "-" "-"`); err == nil {
		t.Error("ParseCommon accepted combined-format trailing fields")
	}
}

// TestRoundTripProperty: format(parse(x)) == x for arbitrary well-formed
// entries.
func TestRoundTripProperty(t *testing.T) {
	base := mustTime(t, "11/Mar/2018:00:00:00 +0000")
	methods := []string{"GET", "POST", "HEAD", "PUT"}
	paths := []string{"/", "/product/5", "/search?q=a+b", "/static/app.css", "/api/price/999"}
	uas := []string{"-", "curl/7.58.0", `quote " inside`, `back\slash`, "Mozilla/5.0 (X11) Gecko"}

	f := func(ipA, ipB, ipC, ipD uint8, methodIdx, pathIdx, uaIdx uint, status uint16, bytes int32, dt uint32) bool {
		e := Entry{
			RemoteAddr: FormatQuad(ipA, ipB, ipC, ipD),
			Identity:   "-",
			AuthUser:   "-",
			Time:       base.Add(time.Duration(dt%700000) * time.Second),
			Method:     methods[methodIdx%uint(len(methods))],
			Path:       paths[pathIdx%uint(len(paths))],
			Proto:      "HTTP/1.1",
			Status:     100 + int(status%500),
			Bytes:      int64(bytes),
			Referer:    "-",
			UserAgent:  uas[uaIdx%uint(len(uas))],
		}
		if e.Bytes < 0 {
			e.Bytes = -1
		}
		line := e.String()
		got, err := ParseCombined(line)
		if err != nil {
			t.Logf("parse %q: %v", line, err)
			return false
		}
		return got.Equal(&e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FormatQuad is a test helper building dotted-quad strings.
func FormatQuad(a, b, c, d uint8) string {
	return strings.Join([]string{
		itoa(int(a)), itoa(int(b)), itoa(int(c)), itoa(int(d)),
	}, ".")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [3]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestEntryHelpers(t *testing.T) {
	e := Entry{Method: "GET", Path: "/search?q=x&page=2", Proto: "HTTP/1.1"}
	if got := e.PathOnly(); got != "/search" {
		t.Errorf("PathOnly = %q, want /search", got)
	}
	if got := e.Query(); got != "q=x&page=2" {
		t.Errorf("Query = %q", got)
	}
	if got := e.RequestLine(); got != "GET /search?q=x&page=2 HTTP/1.1" {
		t.Errorf("RequestLine = %q", got)
	}
	raw := Entry{RawRequest: "garbage"}
	if got := raw.RequestLine(); got != "garbage" {
		t.Errorf("raw RequestLine = %q", got)
	}
	if q := (&Entry{Path: "/plain"}).Query(); q != "" {
		t.Errorf("Query on plain path = %q, want empty", q)
	}
}

func BenchmarkParseCombined(b *testing.B) {
	line := `10.1.2.3 - - [11/Mar/2018:06:25:14 +0000] "GET /product/17 HTTP/1.1" 200 52344 "/category/3" "Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0"`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseCombined(line); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendCombined(b *testing.B) {
	e, err := ParseCombined(`10.1.2.3 - - [11/Mar/2018:06:25:14 +0000] "GET /product/17 HTTP/1.1" 200 52344 "/" "Mozilla/5.0"`)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendCombined(buf[:0], &e)
	}
}
