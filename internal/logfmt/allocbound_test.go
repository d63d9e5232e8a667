package logfmt_test

import (
	"runtime"
	"testing"

	"divscrape/internal/experiments"
	"divscrape/internal/logfmt"
	"divscrape/internal/workload"
)

// Parsing allocates for what it must keep and nothing else: one chunk per
// 4 KiB of transient field bytes (paths, raw requests, referers) and one
// per 4 KiB of distinct keyed values (addresses, agents, users), which are
// carved from a kept chunk of their own — over the first 10 000 lines of
// the bench mix, cold.
func TestParseAllocationsAreBoundedByWhatIsKept(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed:     experiments.BenchScale.Seed,
		Duration: experiments.BenchScale.Duration,
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 10000 {
		t.Fatalf("bench mix has %d lines, need 10000", len(events))
	}
	events = events[:10000]

	const chunk = 4096 // logfmt's chunkBytes
	lines := make([][]byte, len(events))
	transient, kept, own := 0, 0, 0
	keyed := make(map[string]struct{})
	for i := range events {
		e := &events[i].Entry
		lines[i] = logfmt.AppendCombined(nil, e)
		for _, f := range []string{e.Path, e.RawRequest, e.Referer} {
			switch {
			case f == "-":
			case len(f) > chunk/4:
				own++
			default:
				transient += len(f)
			}
		}
		for _, f := range []string{e.RemoteAddr, e.UserAgent, e.Identity, e.AuthUser, e.Method, e.Proto} {
			if _, ok := keyed[f]; ok {
				continue
			}
			keyed[f] = struct{}{}
			if len(f) > chunk/4 {
				own++
			} else {
				kept += len(f)
			}
		}
	}
	// A chunk is abandoned at most a quarter empty, so each kind opens at
	// most one chunk per three quarters of one its bytes fill, plus the
	// first.
	perChunk := chunk * 3 / 4
	bound := transient/perChunk + kept/perChunk + own + 2

	in := logfmt.NewInterner(1 << 16)
	var e logfmt.Entry
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, line := range lines {
		if err := logfmt.ParseCombinedBytes(line, &e, in); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := int(after.Mallocs - before.Mallocs)
	t.Logf("%d allocations for %d lines: %d transient bytes (%d chunks), %d distinct keyed values in %d bytes", allocs, len(lines), transient, transient/chunk, len(keyed), kept)
	if allocs > bound {
		t.Errorf("%d allocations over %d lines, want at most %d (%d transient bytes / %d + %d kept bytes / %d + %d oversize + 2)",
			allocs, len(lines), bound, transient, perChunk, kept, perChunk, own)
	}
}
