package divscrape_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"divscrape"
	"divscrape/internal/bayes"
	"divscrape/internal/detector"
	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
	"divscrape/internal/slab"
)

// The memory a detector — and the ladder — holds per tracked client is
// gated here, in tier-1, not only read off the benchmark: per-client state
// is what a hostile client inflates cheapest, and a change that makes a
// client record a heap object again (or puts a map into one) fails
// `go test`. Every figure is live heap after two forced collections, as
// bench/ reads it.

// heldHeap forces two collections (the second frees what finalizers of the
// first released) and returns the bytes and objects still reachable.
func heldHeap() (bytes, objects uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapObjects
}

// grown is how much the live heap grew across fn; whatever fn builds must
// stay reachable from the caller until grown returns.
func grown(fn func()) (bytes, objects float64) {
	b0, o0 := heldHeap()
	fn()
	b1, o1 := heldHeap()
	return max(float64(b1)-float64(b0), 0), max(float64(o1)-float64(o0), 0)
}

// heldAfter is what remains of held bytes once fn has let some go.
func heldAfter(held float64, fn func()) float64 {
	b0, _ := heldHeap()
	fn()
	b1, _ := heldHeap()
	return held - (float64(b0) - float64(b1))
}

const (
	// maxObjectsPerClient is the gate on "a tracked client is not a heap
	// object": slab chunks, index and map growth come to about 0.02.
	maxObjectsPerClient = 0.05
	// retainedChunk is how many records an emptied store or ladder may
	// still hold memory for: one slab chunk.
	retainedChunk = slab.ChunkLen

	floodClients = 20_000
	sweepIDs     = 5_000
	memUA        = "Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0"
)

var memStart = time.Date(2018, 3, 11, 12, 0, 0, 0, time.UTC)

// memRequests enriches n requests, a millisecond apart (the whole flood
// falls inside every idle timeout), before anything is measured: the
// enricher's own table is not the detector's state (the "enricher"
// subtest measures it on its own).
func memRequests(n int, ip func(i int) string, path func(i int) string) []detector.Request {
	enr := detector.NewEnricher(nil)
	reqs := make([]detector.Request, n)
	for i := range reqs {
		enr.EnrichInto(&reqs[i], divscrape.Entry{
			RemoteAddr: ip(i), Identity: "-", AuthUser: "-",
			Time: memStart.Add(time.Duration(i) * time.Millisecond), Method: "GET", Path: path(i),
			Proto: "HTTP/1.1", Status: 200, Bytes: 1000, Referer: "-", UserAgent: memUA,
		})
	}
	return reqs
}

func oneClient(int) string { return "10.1.2.3" }

func feed(d detector.Detector, reqs []detector.Request) {
	var v detector.Verdict
	for i := range reqs {
		d.InspectInto(&reqs[i], &v)
	}
}

func TestHeldMemoryPerClient(t *testing.T) {
	registry := func(name string) func() (detector.Detector, error) {
		return func() (detector.Detector, error) {
			fs, err := divscrape.FactoriesFor(name)
			if err != nil {
				return nil, err
			}
			return fs[0]()
		}
	}
	var model *bayes.Model
	detectors := []struct {
		name  string
		build func() (detector.Detector, error)
		// floodCeiling bounds the bytes one one-request client may hold:
		// what the record inline in its slab node and its share of the
		// session index measure, plus a tenth.
		floodCeiling float64
		// products: the detector keeps the set of product ids a session saw.
		products bool
	}{
		{"sentinel", registry("sentinel"), 300, false},
		{"arcane", registry("arcane"), 485, true},
		{"trajectory", registry("trajectory"), 440, true},
		{"bayes", func() (detector.Detector, error) {
			if model == nil {
				var err error
				if model, err = bayes.Train(bayes.TrainConfig{Seed: 1001}); err != nil {
					return nil, err
				}
			}
			return bayes.New(bayes.Config{Model: model})
		}, 440, true},
	}

	flood := memRequests(floodClients,
		func(i int) string { return fmt.Sprintf("10.%d.%d.%d", 1+i>>16, i>>8&255, i&255) },
		func(i int) string { return fmt.Sprintf("/product/%d", i%5000) })
	sweep := memRequests(sweepIDs, oneClient, func(i int) string { return fmt.Sprintf("/product/%d", i) })
	rng := rand.New(rand.NewPCG(1, 2))
	sparse := memRequests(sweepIDs, oneClient, func(int) string { return fmt.Sprintf("/product/%d", rng.Uint64()>>24) })

	for _, tc := range detectors {
		t.Run(tc.name, func(t *testing.T) {
			// heldBy feeds reqs to a new detector and returns what it then
			// holds beyond its empty self.
			heldBy := func(reqs []detector.Request) (d detector.Detector, bytes, objects float64) {
				d, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				bytes, objects = grown(func() { feed(d, reqs) })
				return d, bytes, objects
			}
			heldBy(flood[:1]) // unmeasured: what a first build trains and caches stays

			d, held, objects := heldBy(flood)
			perClient := held / floodClients
			t.Logf("%s: a one-request client costs %.0f B in %.2f heap objects (ceiling %.0f B)",
				tc.name, perClient, objects/floodClients, tc.floodCeiling)
			if perClient > tc.floodCeiling {
				t.Errorf("a %d-address flood holds %.0f B per client, ceiling %.0f B", floodClients, perClient, tc.floodCeiling)
			}
			if objects > maxObjectsPerClient*floodClients {
				t.Errorf("a %d-address flood holds %.2f heap objects per client: a tracked client is a heap object again", floodClients, objects/floodClients)
			}

			if ev, ok := d.(detector.Evictable); ok {
				// Past every idle timeout all of it goes: the store rebuilds
				// a slab the sweep left sparse, index included, and keeps at
				// most one chunk.
				left := heldAfter(held, func() {
					if n := ev.EvictBefore(memStart.Add(48 * time.Hour)); n != floodClients {
						t.Fatalf("evicted %d of %d clients", n, floodClients)
					}
				})
				runtime.KeepAlive(d)
				allowed := retainedChunk * perClient
				t.Logf("%s: after eviction the flood still holds %.0f B (allowed %.0f B: one chunk of records)", tc.name, left, allowed)
				if left > allowed {
					t.Errorf("after eviction the flood still holds %.0f B, want at most %.0f B", left, allowed)
				}
			}

			if !tc.products {
				return
			}
			if _, b, _ := heldBy(sweep); b > 4096 {
				t.Errorf("one session sweeping %d sequential product ids holds %.0f B, want at most 4096", sweepIDs, b)
			} else {
				t.Logf("%s: one session sweeping %d sequential product ids holds %.0f B", tc.name, sweepIDs, b)
			}
			if _, b, _ := heldBy(sparse); b > 48*sweepIDs {
				t.Errorf("one session requesting %d random 40-bit product ids holds %.1f B per id, want at most 48", sweepIDs, b/sweepIDs)
			} else {
				t.Logf("%s: one session requesting %d random 40-bit product ids holds %.1f B per id", tc.name, sweepIDs, b/sweepIDs)
			}
		})
	}

	// The ladder under the same flood: one rung record per address, keyed
	// by the address string the request already holds.
	t.Run("mitigate", func(t *testing.T) {
		const ceiling = 95 // 40 B of slab and a map[string]uint32 entry measure 86
		engine, err := mitigate.New(mitigate.Graduated())
		if err != nil {
			t.Fatal(err)
		}
		held, objects := grown(func() {
			for i := range flood {
				engine.Apply(flood[i].Entry.RemoteAddr, flood[i].Entry.Time, mitigate.Assessment{Score: 0.1})
			}
		})
		perClient := held / floodClients
		t.Logf("mitigate: a one-request client costs %.0f B in %.2f heap objects (ceiling %d B)", perClient, objects/floodClients, ceiling)
		if perClient > ceiling {
			t.Errorf("a %d-address flood holds %.0f B per client, ceiling %d B", floodClients, perClient, ceiling)
		}
		if objects > maxObjectsPerClient*floodClients {
			t.Errorf("a %d-address flood holds %.2f heap objects per client: a ladder client is a heap object again", floodClients, objects/floodClients)
		}
		left := heldAfter(held, func() {
			if n := engine.Sweep(memStart.Add(48 * time.Hour)); n != floodClients {
				t.Fatalf("swept %d of %d clients", n, floodClients)
			}
		})
		runtime.KeepAlive(engine)
		allowed := retainedChunk * perClient
		t.Logf("mitigate: after the sweep the flood still holds %.0f B (allowed %.0f B: one chunk of records)", left, allowed)
		if left > allowed {
			t.Errorf("after the sweep the flood still holds %.0f B, want at most %.0f B", left, allowed)
		}
	})
	// The enricher under the same flood: one 12-byte record per address in
	// its clients table, keyed by the address's number, and one agent.
	// Past the window the sweep drops every record and rebuilds the table,
	// so the map's memory goes back.
	t.Run("enricher", func(t *testing.T) {
		const (
			ceiling = 33 // 28.6 B of map slot and growth slack measure, plus a tenth
			// evictedCeiling bounds what the emptied tables keep. The rebuild
			// frees the starting table too: −18 424 B measure.
			evictedCeiling = 4096
		)
		enr := detector.NewEnricher(nil)
		var req detector.Request
		held, objects := grown(func() {
			for i := range flood {
				enr.EnrichInto(&req, flood[i].Entry)
			}
		})
		perAddr := held / floodClients
		t.Logf("enricher: a one-request address costs %.1f B in %.3f heap objects (ceiling %d B)", perAddr, objects/floodClients, ceiling)
		if perAddr > ceiling {
			t.Errorf("a %d-address flood holds %.1f B per address in the enricher, ceiling %d B", floodClients, perAddr, ceiling)
		}
		if objects > maxObjectsPerClient*floodClients {
			t.Errorf("a %d-address flood holds %.3f heap objects per address in the enricher", floodClients, objects/floodClients)
		}
		left := heldAfter(held, func() {
			if n := enr.EvictBefore(memStart.Add(48 * time.Hour)); n != floodClients {
				t.Fatalf("evicted %d of %d addresses", n, floodClients)
			}
		})
		runtime.KeepAlive(enr)
		t.Logf("enricher: after the sweep the flood still holds %.0f B (allowed %d B)", left, evictedCeiling)
		if left > evictedCeiling {
			t.Errorf("after the sweep the flood still holds %.0f B in the enricher, want at most %d B", left, evictedCeiling)
		}
	})
	// The log reader under the same flood, one line per address: the
	// Interner carves each address from its kept chunk, so the flood costs
	// allocations per chunk, not per address. Once it is over, an address
	// a detector still holds pins the chunk it was carved from; one
	// survivor in 256 is the sparse case that pins the most per survivor.
	t.Run("interner", func(t *testing.T) {
		const (
			maxObjectsPerAddr = 0.02
			survivorEvery     = 256
			// pinCeiling is the 2 644 B one survivor in 256 measures, plus a
			// tenth.
			pinCeiling = 2910
		)
		var log bytes.Buffer
		for i := range flood {
			fmt.Fprintf(&log, "%s - - [11/Mar/2018:12:00:00 +0000] \"GET / HTTP/1.1\" 200 1000 \"-\" \"%s\"\n", flood[i].Entry.RemoteAddr, memUA)
		}
		read := func(keep func(i int, e *logfmt.Entry)) {
			r := logfmt.NewReader(bytes.NewReader(log.Bytes()), logfmt.ReaderConfig{})
			var e logfmt.Entry
			for i := 0; ; i++ {
				if err := r.NextInto(&e); err != nil {
					if i != floodClients {
						t.Fatalf("read %d of %d lines: %v", i, floodClients, err)
					}
					return
				}
				keep(i, &e)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read(func(int, *logfmt.Entry) {})
		runtime.ReadMemStats(&after)
		perAddr := float64(after.Mallocs-before.Mallocs) / floodClients
		t.Logf("interner: reading a one-line address costs %.4f heap objects (gate %.2f)", perAddr, maxObjectsPerAddr)
		if perAddr > maxObjectsPerAddr {
			t.Errorf("reading a %d-address flood allocates %.4f heap objects per address, want at most %.2f", floodClients, perAddr, maxObjectsPerAddr)
		}

		survivors := make([]string, 0, floodClients/survivorEvery+1)
		held, _ := grown(func() {
			read(func(i int, e *logfmt.Entry) {
				if i%survivorEvery == 0 {
					survivors = append(survivors, e.RemoteAddr)
				}
			})
		})
		perSurvivor := held / float64(len(survivors))
		t.Logf("interner: one survivor in %d pins %.0f B of kept chunk (ceiling %d B)", survivorEvery, perSurvivor, pinCeiling)
		if perSurvivor > pinCeiling {
			t.Errorf("one survivor in %d pins %.0f B, ceiling %d B", survivorEvery, perSurvivor, pinCeiling)
		}
		runtime.KeepAlive(survivors)
		runtime.KeepAlive(&log)
	})
	runtime.KeepAlive(flood)
	runtime.KeepAlive(sweep)
	runtime.KeepAlive(sparse)
}
