package logfmt

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// A chunk is filled to its last byte, replaced when the next field does
// not fit, and bypassed by "-" and by fields over a quarter of it. None of
// that may change a string already handed out.
func TestTransientChunkBoundaries(t *testing.T) {
	in := NewInterner(256)
	field := func(n int, c byte) []byte { return bytes.Repeat([]byte{c}, n) }
	type kept struct{ got, want string }
	var all []kept
	carve := func(b []byte) { all = append(all, kept{in.transient(b), string(b)}) }

	// Three quarter-chunk fields and one a byte short leave one byte free.
	for i := 0; i < 3; i++ {
		carve(field(chunkBytes/4, byte('a'+i)))
	}
	carve(field(chunkBytes/4-1, 'd'))
	if got := in.chunk.Len(); got != chunkBytes-1 || in.chunk.Cap() != chunkBytes {
		t.Fatalf("chunk holds %d of %d bytes, want %d of %d", got, in.chunk.Cap(), chunkBytes-1, chunkBytes)
	}
	// A field that exactly fills the chunk stays in it.
	carve(field(1, 'e'))
	if got := in.chunk.Len(); got != chunkBytes {
		t.Fatalf("exact fit: chunk holds %d bytes, want %d", got, chunkBytes)
	}
	// One byte over: a fresh chunk, the full one untouched.
	carve(field(1, 'f'))
	if got := in.chunk.Len(); got != 1 || in.chunk.Cap() != chunkBytes {
		t.Fatalf("one byte over: chunk holds %d of %d bytes, want 1 of %d", got, in.chunk.Cap(), chunkBytes)
	}
	// Two bytes that do not fit in the one byte left.
	carve(field(chunkBytes/4, 'g'))
	carve(field(chunkBytes/4, 'h'))
	carve(field(chunkBytes/4, 'i'))
	carve(field(chunkBytes/4-2, 'j'))
	carve(field(1, 'k'))
	carve(field(2, 'l'))
	if got := in.chunk.Len(); got != 2 {
		t.Fatalf("two bytes into one free: chunk holds %d bytes, want 2", got)
	}
	// A quarter chunk plus one byte is allocated on its own, and "-" and
	// the empty field cost nothing: the chunk does not move.
	carve(field(chunkBytes/4+1, 'm'))
	carve(field(chunkBytes, 'n'))
	carve([]byte("-"))
	carve(nil)
	if got := in.chunk.Len(); got != 2 {
		t.Fatalf("oversize fields and constants moved the chunk to %d bytes, want 2", got)
	}
	dash := []byte("-")
	if allocs := testing.AllocsPerRun(100, func() { in.transient(dash) }); allocs != 0 {
		t.Errorf(`transient("-") allocates %.1f, want 0`, allocs)
	}

	for i, k := range all {
		if k.got != k.want {
			t.Errorf("field %d changed after later fields were carved: %.20q… (len %d), want %.20q… (len %d)",
				i, k.got, len(k.got), k.want, len(k.want))
		}
	}
	// A nil interner allocates each field and still answers "-" as itself.
	var none *Interner
	if got := none.transient([]byte("/p")); got != "/p" {
		t.Errorf("nil transient = %q", got)
	}
	if got := none.transient(dash); got != "-" {
		t.Errorf(`nil transient("-") = %q`, got)
	}
}

// interLine renders one well-formed line around the fields the interner
// treats differently.
func interLine(addr, path, referer, ua string) []byte {
	return []byte(fmt.Sprintf(`%s - - [11/Mar/2018:06:25:14 +0000] "GET %s HTTP/1.1" 200 512 "%s" "%s"`, addr, path, referer, ua))
}

// Entries parsed early must read the same after the chunks they were
// carved from have long been replaced and the interner itself is gone.
func TestEarlyEntriesSurviveLaterLines(t *testing.T) {
	in := NewInterner(256)
	var early []Entry
	var lines [][]byte
	for i := 0; i < 200; i++ {
		line := interLine(fmt.Sprintf("10.0.%d.%d", i/7, i%7), fmt.Sprintf("/product/%d?ref=%d", i, i*i),
			fmt.Sprintf("/category/%d", i%9), fmt.Sprintf("agent-%d", i%5))
		var e Entry
		if err := ParseCombinedBytes(line, &e, in); err != nil {
			t.Fatal(err)
		}
		early, lines = append(early, e), append(lines, line)
	}
	var e Entry
	for i := 0; i < 10000; i++ {
		// Distinct everything: chunks roll over and the 256-entry table
		// starts over many times.
		line := interLine(fmt.Sprintf("172.16.%d.%d", i/250, i%250), fmt.Sprintf("/search?q=%d&pad=%s", i, strings.Repeat("x", i%300)),
			fmt.Sprintf("/from/%d", i), fmt.Sprintf("churn-%d", i))
		if err := ParseCombinedBytes(line, &e, in); err != nil {
			t.Fatal(err)
		}
	}
	in = nil
	runtime.GC()
	for i, line := range lines {
		want, err := ParseCombined(string(line))
		if err != nil {
			t.Fatal(err)
		}
		if !early[i].Equal(&want) {
			t.Errorf("early entry %d changed:\n got  %+v\n want %+v", i, early[i], want)
		}
	}
}

// An address's entry remembers an agent, learns a new one only on a line
// that admitted something, answers a repeat without the table, and never
// re-adds an address a start-over in the same line dropped.
func TestAgentMemo(t *testing.T) {
	in := NewInterner(256)
	var e Entry
	parse := func(addr, ua string) {
		t.Helper()
		if err := ParseCombinedBytes(interLine(addr, "/", "-", ua), &e, in); err != nil {
			t.Fatal(err)
		}
		if e.UserAgent != ua {
			t.Fatalf("%s sent %q, parsed %q", addr, ua, e.UserAgent)
		}
	}
	remembers := func(addr, want string) {
		t.Helper()
		if got := in.m[addr].agent; got != want {
			t.Fatalf("%s remembers %q, want %q", addr, got, want)
		}
	}
	parse("10.0.0.1", "agent-x") // both admitted
	remembers("10.0.0.1", "agent-x")
	parse("10.0.0.2", "agent-x") // the address admitted
	remembers("10.0.0.2", "agent-x")
	parse("10.0.0.1", "agent-y") // the agent admitted
	remembers("10.0.0.1", "agent-y")
	parse("10.0.0.1", "agent-x") // nothing admitted: a lookup, no store
	remembers("10.0.0.1", "agent-y")

	// A repeat is answered from the entry: with the agent's own entry gone
	// the line admits nothing.
	delete(in.m, "agent-y")
	n := len(in.m)
	parse("10.0.0.1", "agent-y")
	if len(in.m) != n {
		t.Fatalf("a repeated agent reached the table: %d entries, want %d", len(in.m), n)
	}

	// The table one short of full: the line's address fills it, its agent
	// starts it over, and the address is not written back.
	for i := 0; len(in.m) < in.max-1; i++ {
		in.Intern([]byte(fmt.Sprint("fill-", i)))
	}
	parse("10.0.0.3", "agent-z")
	if _, ok := in.m["agent-z"]; len(in.m) != 1 || !ok {
		t.Fatalf("after the start-over the table holds %d entries (agent-z: %v), want agent-z alone", len(in.m), ok)
	}
	parse("10.0.0.3", "agent-z") // admitted again, remembering its agent
	remembers("10.0.0.3", "agent-z")
}

// A flood of one-shot addresses and User-Agents fills the table several
// times over. The table starts over rather than closing, so a population
// that returns afterwards is admitted again and parses without allocating.
func TestInternerAdmitsAgainAfterFlood(t *testing.T) {
	in := NewInterner(1 << 16)
	var e Entry
	for i := 0; i < 70000; i++ {
		line := interLine(fmt.Sprintf("100.%d.%d.%d", i>>16, i>>8&255, i&255), "/", "-", fmt.Sprintf("one-shot/%d", i))
		if err := ParseCombinedBytes(line, &e, in); err != nil {
			t.Fatal(err)
		}
	}
	if len(in.m) > 1<<16 {
		t.Fatalf("table holds %d entries, bound %d", len(in.m), 1<<16)
	}
	population := make([][]byte, 1000)
	for i := range population {
		population[i] = interLine(fmt.Sprintf("10.9.%d.%d", i/250, i%250), "/", "-", fmt.Sprintf("Mozilla/5.0 (returning %d)", i%40))
	}
	parseAll := func() {
		for _, line := range population {
			if err := ParseCombinedBytes(line, &e, in); err != nil {
				t.Fatal(err)
			}
		}
	}
	parseAll() // admitted here
	// One byte of path per line: a chunk lasts four passes, which
	// AllocsPerRun's integer average reads as zero.
	if allocs := testing.AllocsPerRun(20, parseAll); allocs != 0 {
		t.Errorf("returning population allocates %.0f per %d lines after the flood, want 0", allocs, len(population))
	}
}
