package logfmt

import (
	"fmt"
	"testing"
)

// fastPathLine renders one line around the fields the byte parser answers
// from constants or from the day memo.
func fastPathLine(stamp, request string) string {
	return fmt.Sprintf(`10.1.2.3 - - [%s] "%s" 200 512 "-" "UA/1.0"`, stamp, request)
}

const fastPathGet = "GET /product/17 HTTP/1.1"

// fastPathCases are the lines TestFastPathsMatchStringParser feeds in order;
// FuzzParseCombinedBytes starts from them too.
var fastPathCases = []struct {
	line  string
	valid bool
}{
	// Same day, then across midnight, a month end and a leap day.
	{fastPathLine("27/Feb/2024:23:59:58 +0000", fastPathGet), true},
	{fastPathLine("27/Feb/2024:23:59:59 +0000", fastPathGet), true},
	{fastPathLine("28/Feb/2024:00:00:00 +0000", fastPathGet), true},
	{fastPathLine("28/Feb/2024:23:59:59 +0000", fastPathGet), true},
	{fastPathLine("29/Feb/2024:00:00:01 +0000", fastPathGet), true},
	{fastPathLine("29/Feb/2024:23:59:59 +0000", fastPathGet), true},
	{fastPathLine("01/Mar/2024:00:00:00 +0000", fastPathGet), true},
	{fastPathLine("31/Dec/2024:23:59:59 +0000", fastPathGet), true},
	{fastPathLine("01/Jan/2025:00:00:00 +0000", fastPathGet), true},
	// A zone change between two lines of the same date, and back.
	{fastPathLine("01/Jan/2025:08:00:00 +0530", fastPathGet), true},
	{fastPathLine("01/Jan/2025:08:00:01 -0800", fastPathGet), true},
	{fastPathLine("01/Jan/2025:08:00:02 +0530", fastPathGet), true},
	// Calendar-invalid days while the memo holds a valid February day:
	// rejected, and the next valid line is unharmed.
	{fastPathLine("28/Feb/2025:10:00:00 +0000", fastPathGet), true},
	{fastPathLine("31/Feb/2025:10:00:00 +0000", fastPathGet), false},
	{fastPathLine("31/Feb/2025:10:00:01 +0000", fastPathGet), false}, // a remembered reject would be accepted here
	{fastPathLine("28/Feb/2025:10:00:01 +0000", fastPathGet), true},
	{fastPathLine("30/Feb/2025:10:00:00 +0000", fastPathGet), false},
	{fastPathLine("29/Feb/2025:10:00:00 +0000", fastPathGet), false}, // not a leap year
	{fastPathLine("28/Feb/2025:10:00:02 +0000", fastPathGet), true},
	// Out-of-range times of day on a remembered date.
	{fastPathLine("28/Feb/2025:24:00:00 +0000", fastPathGet), false},
	{fastPathLine("28/Feb/2025:10:60:00 +0000", fastPathGet), false},
	{fastPathLine("28/Feb/2025:10:00:60 +0000", fastPathGet), false},
	{fastPathLine("28/Feb/2025:1x:00:00 +0000", fastPathGet), false},
	{fastPathLine("28/Feb/2025:10:00:03 +0000", fastPathGet), true},
	// A bad zone on a remembered date, then the date again.
	{fastPathLine("28/Feb/2025:10:00:04 +9900", fastPathGet), false},
	{fastPathLine("28/Feb/2025:10:00:04 *0000", fastPathGet), false},
	{fastPathLine("28/Feb/2025:10:00:05 +0000", fastPathGet), true},
	// Every constant, and tokens one byte off them.
	{fastPathLine("28/Feb/2025:10:00:06 +0000", "POST /__verify HTTP/1.0"), true},
	{fastPathLine("28/Feb/2025:10:00:06 +0000", "HEAD / HTTP/2.0"), true},
	{fastPathLine("28/Feb/2025:10:00:06 +0000", "PUT /cart HTTP/1.1"), true},
	{fastPathLine("28/Feb/2025:10:00:06 +0000", "DELETE /cart HTTP/1.1"), true},
	{fastPathLine("28/Feb/2025:10:00:06 +0000", "OPTIONS * HTTP/1.1"), true},
	{fastPathLine("28/Feb/2025:10:00:06 +0000", "PATCH /cart HTTP/1.1"), true},
	{fastPathLine("28/Feb/2025:10:00:06 +0000", "GETX / HTTP/1.1"), true},
	{fastPathLine("28/Feb/2025:10:00:06 +0000", "GE / HTTP/1.1"), true},
	{fastPathLine("28/Feb/2025:10:00:06 +0000", "get / HTTP/1.1"), true},
	{fastPathLine("28/Feb/2025:10:00:06 +0000", "GET / HTTP/1.10"), true},
	{fastPathLine("28/Feb/2025:10:00:06 +0000", "GET / HTTP/1."), true},
	{fastPathLine("28/Feb/2025:10:00:06 +0000", "GET / http/1.1"), true},
	{fastPathLine("28/Feb/2025:10:00:06 +0000", "GET GET GET"), true},
	{fastPathLine("28/Feb/2025:10:00:06 +0000", "-"), true},
	{`- -- GET [28/Feb/2025:10:00:07 +0000] "GET - HTTP/1.1" 200 - "GET" "HTTP/1.1"`, true},
	// "GET <path> HTTP/1.1" is split by its ends: requests a byte off that
	// shape, or with the path empty or holding spaces.
	{fastPathLine("28/Feb/2025:10:00:08 +0000", "GET  HTTP/1.1"), true},
	{fastPathLine("28/Feb/2025:10:00:08 +0000", "GET HTTP/1.1"), true},
	{fastPathLine("28/Feb/2025:10:00:08 +0000", "GET   HTTP/1.1"), true},
	{fastPathLine("28/Feb/2025:10:00:08 +0000", "GET /a b HTTP/1.1"), true},
	{fastPathLine("28/Feb/2025:10:00:08 +0000", "GET  / HTTP/1.1"), true},
	{fastPathLine("28/Feb/2025:10:00:08 +0000", "GET /  HTTP/1.1"), true},
	{fastPathLine("28/Feb/2025:10:00:08 +0000", "GET / HTTP/1.1 "), true},
	{fastPathLine("28/Feb/2025:10:00:08 +0000", " GET / HTTP/1.1"), true},
	{fastPathLine("28/Feb/2025:10:00:08 +0000", "GET / xHTTP/1.1"), true},
	{fastPathLine("28/Feb/2025:10:00:08 +0000", "GET\t/ HTTP/1.1"), true},
	// " - - " after the address is taken without scanning: lines a space
	// or a byte off it, and lines that end inside it.
	{`10.1.2.3  - - [28/Feb/2025:10:00:09 +0000] "GET / HTTP/1.1" 200 512 "-" "UA/1.0"`, true},
	{`10.1.2.3 - -  [28/Feb/2025:10:00:09 +0000] "GET / HTTP/1.1" 200 512 "-" "UA/1.0"`, true},
	{`10.1.2.3 - - - [28/Feb/2025:10:00:09 +0000] "GET / HTTP/1.1" 200 512 "-" "UA/1.0"`, false},
	{`10.1.2.3 - -[28/Feb/2025:10:00:09 +0000] "GET / HTTP/1.1" 200 512 "-" "UA/1.0"`, false},
	{`10.1.2.3 -- - [28/Feb/2025:10:00:09 +0000] "GET / HTTP/1.1" 200 512 "-" "UA/1.0"`, true},
	{`10.1.2.3 - -- [28/Feb/2025:10:00:09 +0000] "GET / HTTP/1.1" 200 512 "-" "UA/1.0"`, true},
	{`10.1.2.3 - - `, false},
	{`10.1.2.3 - -`, false},
	{`10.1.2.3 - `, false},
}

// The byte parser answers "-", the common methods and protocols from
// constants, and a timestamp on the same day and zone as the previous line
// from the remembered midnight. Lines are fed in order through ONE interner
// (the memo is per-interner state) and, as a control, through none; every
// result is checked against the string parser, which has neither shortcut.
func TestFastPathsMatchStringParser(t *testing.T) {
	check := func(t *testing.T, in *Interner) {
		t.Helper()
		for i, tt := range fastPathCases {
			want, wantErr := ParseCombined(tt.line)
			if (wantErr == nil) != tt.valid {
				t.Fatalf("line %d %q: oracle error = %v, test expects valid=%v", i, tt.line, wantErr, tt.valid)
			}
			var got Entry
			err := ParseCombinedBytes([]byte(tt.line), &got, in)
			if (err == nil) != tt.valid {
				t.Errorf("line %d %q: error = %v, want valid=%v", i, tt.line, err, tt.valid)
				continue
			}
			if err != nil {
				continue
			}
			if !got.Equal(&want) {
				t.Errorf("line %d %q:\n bytes:  %+v\n string: %+v", i, tt.line, got, want)
			}
			if !got.Time.Equal(want.Time) {
				t.Errorf("line %d %q: instant %v, want %v", i, tt.line, got.Time, want.Time)
			}
			_, gotOff := got.Time.Zone()
			_, wantOff := want.Time.Zone()
			if gotOff != wantOff {
				t.Errorf("line %d %q: zone offset %d, want %d", i, tt.line, gotOff, wantOff)
			}
		}
	}
	t.Run("interner", func(t *testing.T) { check(t, NewInterner(1<<10)) })
	t.Run("nil interner", func(t *testing.T) { check(t, nil) })
}

// Alternating days and zones defeats the memo on every line; that slow path
// must stay allocation-free too, as must the hit path and the constants.
func TestFastPathsZeroAllocs(t *testing.T) {
	in := NewInterner(1 << 10)
	lines := [][]byte{
		[]byte(fastPathLine("28/Feb/2024:23:59:59 +0000", "GET / HTTP/1.1")),
		[]byte(fastPathLine("28/Feb/2024:23:59:59 +0000", "POST /__verify HTTP/1.0")),
		[]byte(fastPathLine("29/Feb/2024:00:00:00 +0000", "HEAD / HTTP/2.0")),
		[]byte(fastPathLine("29/Feb/2024:00:00:00 +0530", "PURGE / HTTP/1.10")),
		[]byte(fastPathLine("29/Feb/2024:00:00:00 -0800", "GET / HTTP/1.1")),
	}
	var e Entry
	parseAll := func() {
		for _, l := range lines {
			if err := ParseCombinedBytes(l, &e, in); err != nil {
				t.Fatal(err)
			}
		}
	}
	parseAll() // warm the intern table and the zone cache
	if allocs := testing.AllocsPerRun(200, parseAll); allocs != 0 {
		t.Errorf("parsing allocates %.2f per %d lines in steady state, want 0", allocs, len(lines))
	}
}
