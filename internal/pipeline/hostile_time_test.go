package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"divscrape/internal/arcane"
	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
	"divscrape/internal/sentinel"
	"divscrape/internal/statecodec"
)

// The byte parser admits every year from 0000 to 9999, and per-client
// records keep instants as int64 nanoseconds, which cover 1678–2262. A log
// line is a client's to write: stamps outside the range must clamp, never
// wrap — no panic, sessions still end oldest first, and the state still
// snapshots and restores byte for byte.
func TestHostileInstantsThroughTheSequentialPipeline(t *testing.T) {
	line := func(ip, stamp string) string {
		return fmt.Sprintf(`%s - - [%s] "GET /product/7 HTTP/1.1" 200 512 "-" "Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0"`+"\n", ip, stamp)
	}
	ancient := line("10.0.0.1", "01/Jan/0000:00:00:00 +1400") +
		line("10.0.0.2", "01/Jan/0001:00:00:00 +0000") + // the zero time itself
		line("10.0.0.3", "01/Jan/0001:00:00:01 +0000") +
		line("10.0.0.1", "01/Jan/0001:09:00:00 +0000")
	modern := line("10.0.0.4", "11/Mar/2018:12:00:00 +0000") +
		line("10.0.0.5", "11/Mar/2018:12:00:01 +0000")
	distant := line("10.0.0.6", "31/Dec/9999:00:00:00 +0000") +
		line("10.0.0.7", "31/Dec/9999:23:59:59 -1200") +
		line("10.0.0.6", "31/Dec/9999:23:59:59 -1200")

	build := func() (*Pipeline, *sentinel.Detector, *arcane.Detector) {
		sen, err := sentinel.New(sentinel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		arc, err := arcane.New(arcane.Config{})
		if err != nil {
			t.Fatal(err)
		}
		policy := mitigate.Graduated()
		p, err := New(Config{
			Detectors:   []detector.Detector{sen, arc},
			Factories:   pairFactories(),
			Reputation:  iprep.BuildFeed(),
			Mode:        Sequential,
			EvictWindow: 2 * time.Hour,
			Mitigation:  &policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p, sen, arc
	}
	run := func(p *Pipeline, text string) {
		t.Helper()
		decided := 0
		err := p.RunReader(context.Background(), strings.NewReader(text), logfmt.Strict, func(Decision) error {
			decided++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.Count(text, "\n"); decided != want {
			t.Fatalf("%d of %d lines decided", decided, want)
		}
	}
	ladder := func(p *Pipeline) []byte {
		w := statecodec.NewWriter()
		p.SnapshotLadder(w)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		return w.Bytes()
	}

	p, sen, arc := build()
	run(p, ancient)
	if sen.Sessions() != 3 || arc.Sessions() != 3 {
		t.Fatalf("after the ancient lines: %d addresses, %d sessions, want 3 and 3", sen.Sessions(), arc.Sessions())
	}
	// Seventeen centuries idle: the first modern line ends all three.
	run(p, modern)
	if sen.Sessions() != 2 || arc.Sessions() != 2 {
		t.Fatalf("after the modern lines: %d addresses, %d sessions, want 2 and 2", sen.Sessions(), arc.Sessions())
	}

	// The state — clamped stamps included — restores into a fresh pipeline
	// and snapshots to the same bytes from there.
	state, rungs := checkpoint(t, p), ladder(p)
	q, qsen, qarc := build()
	resume(t, q, state)
	if err := q.RestoreLadder(statecodec.NewReader(rungs)); err != nil {
		t.Fatal(err)
	}
	if again := checkpoint(t, q); !bytes.Equal(again, state) {
		t.Error("the restored pipeline checkpoints to different bytes")
	}
	if again := ladder(q); !bytes.Equal(again, rungs) {
		t.Error("the restored ladder snapshots to different bytes")
	}

	for _, side := range []struct {
		p   *Pipeline
		sen *sentinel.Detector
		arc *arcane.Detector
	}{{p, sen, arc}, {q, qsen, qarc}} {
		run(side.p, distant)
		if side.sen.Sessions() != 2 || side.arc.Sessions() != 2 {
			t.Fatalf("after the year 9999: %d addresses, %d sessions, want 2 and 2", side.sen.Sessions(), side.arc.Sessions())
		}
	}
	if a, b := checkpoint(t, p), checkpoint(t, q); !bytes.Equal(a, b) {
		t.Error("the original and the restored pipeline diverged over the year-9999 lines")
	}
	if a, b := ladder(p), ladder(q); !bytes.Equal(a, b) {
		t.Error("the original and the restored ladder diverged over the year-9999 lines")
	}
}

// One line stamped far ahead of the stream must not stop the windowed
// sweeps for the rest of it: a line more than a sweep period before the
// anchor sweeps and re-anchors on itself, as the enricher's expiry does.
func TestFarFutureLineDoesNotStopSweeps(t *testing.T) {
	line := func(ip string, at time.Time) string {
		return fmt.Sprintf(`%s - - [%s] "GET /product/7 HTTP/1.1" 200 512 "-" "Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0"`+"\n", ip, at.Format(logfmt.ApacheTime))
	}
	var stream strings.Builder
	start := time.Date(2018, 3, 11, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 5000; i++ {
		stream.WriteString(line(fmt.Sprintf("10.%d.%d.%d", i>>16&0xff, i>>8&0xff, i&0xff), start.Add(time.Duration(i)*time.Second)))
	}
	replay := func(text string) uint64 {
		t.Helper()
		sen, err := sentinel.New(sentinel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		arc, err := arcane.New(arcane.Config{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(Config{
			Detectors:   []detector.Detector{sen, arc},
			Factories:   pairFactories(),
			Reputation:  iprep.BuildFeed(),
			Mode:        Sequential,
			EvictWindow: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.RunReader(context.Background(), strings.NewReader(text), logfmt.Strict, func(Decision) error { return nil }); err != nil {
			t.Fatal(err)
		}
		sweeps, _ := p.EvictionStats()
		return sweeps
	}

	sweeps := replay(stream.String())
	if sweeps == 0 {
		t.Fatal("the plain stream never swept")
	}
	// The first 2018 line sweeps and re-anchors; the cadence then runs as
	// in the plain stream.
	far := replay(line("10.255.0.1", time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC)) + stream.String())
	if far != sweeps+1 {
		t.Errorf("after a line stamped 2200 the stream swept %d times, want %d", far, sweeps+1)
	}
}
