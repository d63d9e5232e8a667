package divscrape_test

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"divscrape"
	"divscrape/internal/bayes"
	"divscrape/internal/detector"
	"divscrape/internal/sessions"
)

// The memory a detector holds per tracked client is gated here, in tier-1,
// not only read off the benchmark: per-client state is what a hostile
// client inflates cheapest, and a change that puts a map (or any second
// heap object) back into a client record fails `go test`. Every figure is
// live heap after two forced collections, as bench/ reads it.

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

const (
	floodClients = 20_000
	sweepIDs     = 5_000
	memUA        = "Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0"
)

var memStart = time.Date(2018, 3, 11, 12, 0, 0, 0, time.UTC)

// memRequests enriches n requests, a millisecond apart (the whole flood
// falls inside every idle timeout), before anything is measured: the
// enricher's own caches are not the detector's state.
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
		// about 1.5× what the record, its store node and its share of the
		// session index measure.
		floodCeiling float64
		// products: the detector keeps the set of product ids a session saw.
		products bool
	}{
		{"sentinel", registry("sentinel"), 520, false},
		{"arcane", registry("arcane"), 730, true},
		{"trajectory", registry("trajectory"), 640, true},
		{"bayes", func() (detector.Detector, error) {
			if model == nil {
				var err error
				if model, err = bayes.Train(bayes.TrainConfig{Seed: 1001}); err != nil {
					return nil, err
				}
			}
			return bayes.New(bayes.Config{Model: model})
		}, 640, true},
	}

	flood := memRequests(floodClients,
		func(i int) string { return fmt.Sprintf("10.%d.%d.%d", 1+i>>16, i>>8&255, i&255) },
		func(i int) string { return fmt.Sprintf("/product/%d", i%5000) })
	sweep := memRequests(sweepIDs, oneClient, func(i int) string { return fmt.Sprintf("/product/%d", i) })
	rng := rand.New(rand.NewPCG(1, 2))
	sparse := memRequests(sweepIDs, oneClient, func(int) string { return fmt.Sprintf("/product/%d", rng.Uint64()>>24) })

	// What an emptied session index of the flood's size still holds: Go
	// maps keep their buckets. It is the "empty" the eviction check allows.
	var index map[sessions.Key]*int
	emptiedIndex, _ := grown(func() {
		index = make(map[sessions.Key]*int, 1024)
		for i := range flood {
			index[flood[i].SessionKey()] = nil
		}
		clear(index)
	})

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

			if ev, ok := d.(detector.Evictable); ok {
				// Past every idle timeout, all of it goes but the store's
				// bounded free list (4096 recycled records).
				b0, _ := heldHeap()
				if n := ev.EvictBefore(memStart.Add(48 * time.Hour)); n != floodClients {
					t.Fatalf("evicted %d of %d clients", n, floodClients)
				}
				b1, _ := heldHeap()
				runtime.KeepAlive(d)
				left := held - (float64(b0) - float64(b1))
				allowed := 1.10 * (emptiedIndex + 4096*perClient)
				t.Logf("%s: after eviction the flood still holds %.0f B (allowed %.0f B: emptied index %.0f B + 4096 free records, +10%%)",
					tc.name, left, allowed, emptiedIndex)
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
	runtime.KeepAlive(flood)
	runtime.KeepAlive(sweep)
	runtime.KeepAlive(sparse)
	runtime.KeepAlive(index)
}
