package pipeline

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"testing"
	"time"

	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/statecodec"
	"divscrape/internal/trace"
	"divscrape/internal/workload"
)

// cyclingSource replays the event list until total entries have been
// served, shifting each cycle's timestamps past the previous one so
// event time stays monotonic (clients simply accumulate longer
// sessions).
func cyclingSource(events []workload.Event, total int) EntrySource {
	span := events[len(events)-1].Entry.Time.Sub(events[0].Entry.Time) + time.Second
	i := 0
	var offset time.Duration
	return func() (logfmt.Entry, error) {
		if i >= total {
			return logfmt.Entry{}, io.EOF
		}
		if i > 0 && i%len(events) == 0 {
			offset += span
		}
		e := events[i%len(events)].Entry
		e.Time = e.Time.Add(offset)
		i++
		return e, nil
	}
}

// runFingerprint replays src through p and reduces the run to two
// fingerprints: an order-sensitive hash of the full decision stream
// (seq, alerts, exact score bits) and the checkpoint bytes afterwards.
func runFingerprint(t *testing.T, p *Pipeline, src EntrySource) (stream uint64, ckpt []byte, n int) {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	err := p.Run(context.Background(), src, func(d Decision) error {
		n++
		binary.LittleEndian.PutUint64(buf[:], d.Req.Seq)
		h.Write(buf[:])
		for i := range d.Verdicts {
			v := &d.Verdicts[i]
			b := byte(0)
			if v.Alert {
				b = 1
			}
			h.Write([]byte{b})
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Score))
			h.Write(buf[:])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w := statecodec.NewWriter()
	if err := p.Checkpoint(w); err != nil {
		t.Fatal(err)
	}
	return h.Sum64(), append([]byte(nil), w.Bytes()...), n
}

// Tracing is observation only: with the plane fully armed — stage spans,
// shard gauges, merge-stall accounting — a 50k-event replay must produce
// a byte-identical decision stream and byte-identical checkpoint to the
// untraced run, in every mode.
func TestTracingEquivalence50k(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-event replay")
	}
	const total = 50_000
	events := generate(t, 2)

	for _, mode := range []Mode{Sequential, Sharded} {
		mode := mode
		t.Run(map[Mode]string{Sequential: "seq", Sharded: "shard"}[mode], func(t *testing.T) {
			baseHash, baseCkpt, n := runFingerprint(t, newPipe(t, mode), cyclingSource(events, total))
			if n != total {
				t.Fatalf("untraced run sinked %d decisions, want %d", n, total)
			}

			tshards := 0
			if mode == Sharded {
				tshards = 4
			}
			tracer := trace.New(trace.Config{
				Detectors: []string{"sentinel", "arcane"},
				Shards:    tshards,
				Recorder:  trace.RecorderConfig{Rate: 16},
			})
			p, err := New(Config{
				Factories:  pairFactories(),
				Reputation: iprep.BuildFeed(),
				Mode:       mode,
				Shards:     4,
				Trace:      tracer,
			})
			if err != nil {
				t.Fatal(err)
			}
			tracedHash, tracedCkpt, n := runFingerprint(t, p, cyclingSource(events, total))
			if n != total {
				t.Fatalf("traced run sinked %d decisions, want %d", n, total)
			}

			if tracedHash != baseHash {
				t.Errorf("decision stream diverged with tracing on: %x != %x", tracedHash, baseHash)
			}
			if len(tracedCkpt) != len(baseCkpt) {
				t.Fatalf("checkpoint size diverged with tracing on: %d != %d bytes", len(tracedCkpt), len(baseCkpt))
			}
			for i := range baseCkpt {
				if tracedCkpt[i] != baseCkpt[i] {
					t.Fatalf("checkpoint bytes diverged at offset %d", i)
				}
			}

			// And the plane actually observed the run: every exercised
			// stage recorded one span per decision.
			stats := map[string]uint64{}
			for _, st := range tracer.StageStats() {
				stats[st.Name()] = st.Count
			}
			for _, stage := range []string{"parse", "enrich", "detect-sentinel", "detect-arcane", "sink"} {
				if stats[stage] != total {
					t.Errorf("stage %s recorded %d spans, want %d", stage, stats[stage], total)
				}
			}
			if mode == Sharded && stats["merge"] == 0 {
				t.Error("sharded run recorded no merge spans")
			}
		})
	}
}
