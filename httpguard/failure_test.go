package httpguard

import (
	"context"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"divscrape/internal/mitigate"
	"divscrape/internal/slab"
	"divscrape/internal/statecodec"
	"divscrape/internal/workload"
)

func TestDegradedModeNames(t *testing.T) {
	if FailOpen.String() != "fail-open" || FailClosed.String() != "fail-closed" {
		t.Fatalf("mode names: %q %q", FailOpen, FailClosed)
	}
}

func TestFailureConfigDefaults(t *testing.T) {
	g := newGuard(t, Config{})
	if g.cfg.MaxInFlight != 256 {
		t.Fatalf("MaxInFlight default %d, want 256", g.cfg.MaxInFlight)
	}
	if g.cfg.QuarantineBackoff != 30*time.Second {
		t.Fatalf("QuarantineBackoff default %v, want 30s", g.cfg.QuarantineBackoff)
	}
	if g.cfg.Degraded != FailOpen {
		t.Fatalf("Degraded default %v, want fail-open", g.cfg.Degraded)
	}
	// Negative disables the admission gate entirely.
	g = newGuard(t, Config{MaxInFlight: -1})
	if g.cfg.MaxInFlight != 0 {
		t.Fatalf("negative MaxInFlight normalised to %d, want 0", g.cfg.MaxInFlight)
	}
}

func TestTarpitObservesContextCancellation(t *testing.T) {
	// No injected Sleep: the tarpit runs its real timer path, but the
	// context is already cancelled, so it must return immediately — a
	// disconnected client's goroutine is never pinned for the delay.
	g := newGuard(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	go func() {
		g.tarpit(ctx, time.Hour)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tarpit ignored context cancellation")
	}
}

func TestTarpitUsesInjectedSleep(t *testing.T) {
	var slept []time.Duration
	g := newGuard(t, Config{
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	g.tarpit(context.Background(), 3*time.Second)
	if len(slept) != 1 || slept[0] != 3*time.Second {
		t.Fatalf("injected sleep saw %v", slept)
	}
}

func TestTarpitZeroDelayReturns(t *testing.T) {
	g := newGuard(t, Config{})
	g.tarpit(context.Background(), 0) // must not touch a timer
}

// A flood the window has evicted must not live on in the shards' restore
// buffers: a guard fed a 20 000-address flood, then traffic past
// EvictWindow across a sweep slot, holds no more than a guard that saw
// only that traffic plus a chunk of records per side per shard — and every
// side still has a snapshot to restore from.
func TestRestoreBuffersGiveAFloodBack(t *testing.T) {
	const (
		shards, window = 2, 10 * time.Minute
		// recordCeiling is above every side's bytes per client in
		// TestHeldMemoryPerClient, index share included.
		recordCeiling = 512
	)
	base := time.Date(2018, 3, 11, 6, 0, 0, 0, time.UTC)
	build := func(flood bool) *Guard {
		now := base
		g := newGuard(t, Config{Shards: shards, EvictWindow: window, MaxInFlight: -1,
			Now: func() time.Time { return now }, Sleep: func(time.Duration) {}})
		h := g.Wrap(okHandler())
		// Every minute 64 browsing clients make a request each; a round
		// can be made to draw every shard's sweep ticket.
		round := func(at time.Time, sweep bool) {
			if sweep {
				for _, s := range g.shards {
					s.counts[cTotal].Store(sweepEvery - 1)
				}
			}
			now = at
			before := g.sweeps.Load()
			for c := 0; c < 64; c++ {
				do(t, h, "10.0.0."+strconv.Itoa(c), browserUA, "/product/"+strconv.Itoa(c))
			}
			if sweep && g.sweeps.Load() != before+shards {
				t.Fatalf("a round drew %d sweep slots, want %d", g.sweeps.Load()-before, shards)
			}
		}
		round(base, false)
		if flood {
			for i := 0; i < 20_000; i++ {
				now = base.Add(time.Duration(i) * time.Millisecond)
				do(t, h, "172.16."+strconv.Itoa(i>>8)+"."+strconv.Itoa(i&255), toolUA, "/product/"+strconv.Itoa(i))
			}
		}
		round(base.Add(time.Minute), true) // the flood is in every restore buffer
		for m := 2; m <= 12; m++ {
			round(base.Add(time.Duration(m)*time.Minute), m == 12) // past the window: the flood goes
		}
		return g
	}
	held := func(flood bool) (float64, *Guard) {
		b0 := heapInUse()
		g := build(flood)
		return float64(heapInUse()) - float64(b0), g
	}
	quiet, qg := held(false)
	flooded, fg := held(true)
	if fg.evicted.Load() < 20_000 {
		t.Fatalf("the window evicted %d clients of a 20 000-address flood", fg.evicted.Load())
	}
	for _, sh := range fg.Health().PerShard {
		if slices.ContainsFunc(sh.Sides, func(h DetectorHealth) bool { return !h.HasSnapshot }) {
			t.Errorf("shard %d lost a restore point: %+v", sh.Shard, sh)
		}
	}
	limit := quiet + shards*2*slab.ChunkLen*recordCeiling
	t.Logf("held: quiet guard %.0f B, flooded guard %.0f B, limit %.0f B", quiet, flooded, limit)
	if flooded > limit {
		t.Errorf("after the flood was evicted the guard holds %.0f B, a quiet one %.0f B: more than a chunk of records per side per shard", flooded, quiet)
	}
	runtime.KeepAlive(qg)
}

// heapInUse forces two collections and returns the live heap.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A restore point holds its side's snapshot zero-packed in a slice of
// exactly its size. On a seeded two hours of the wide mix (the guard-http
// traffic: 40 000 visitors, 2 000 stealth bots) through a two-shard guard
// of three sides, the points hold at most 0.6 of their payload, and none
// has more than an eighth of spare capacity.
func TestRestorePointSize(t *testing.T) {
	p := workload.CalibratedProfile(1)
	p.HumanVisitors, p.StealthBots = 40_000, 2_000
	gen, err := workload.NewGenerator(workload.Config{Seed: 1, Duration: 2 * time.Hour, Profile: p})
	if err != nil {
		t.Fatal(err)
	}
	events, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var now time.Time
	g := newGuard(t, Config{Policy: policyOf(mitigate.Graduated()), EnableTrajectory: true, Shards: 2,
		Now: func() time.Time { return now }, Sleep: func(time.Duration) {}})
	h, clients := g.Wrap(okHandler()), map[string]bool{}
	for i := range events {
		e := &events[i].Entry
		now, clients[e.RemoteAddr] = e.Time, true
		req := httptest.NewRequest(e.Method, e.Path, nil)
		req.RemoteAddr = e.RemoteAddr + ":40000"
		req.Header.Set("User-Agent", e.UserAgent)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	var raw, packed int
	for _, s := range g.shards {
		for i, name := range s.Names {
			point := s.RestorePoint(i)
			payload, err := statecodec.Unpack(nil, point)
			if err != nil || len(payload) == 0 {
				t.Fatalf("shard %d %s: restore point of %d bytes unpacks to %d (%v)", s.Index, name, len(point), len(payload), err)
			}
			if cap(point) > len(point)+len(point)/8 {
				t.Errorf("shard %d %s: restore point len %d cap %d", s.Index, name, len(point), cap(point))
			}
			raw, packed = raw+len(payload), packed+len(point)
		}
	}
	n := float64(len(clients))
	t.Logf("restore points: %d requests, %d clients, %.1f B raw and %.1f B packed per client (%.3f)",
		len(events), len(clients), float64(raw)/n, float64(packed)/n, float64(packed)/float64(raw))
	if float64(packed) > 0.6*float64(raw) {
		t.Errorf("restore points hold %d B packed of %d B payload, more than 0.6", packed, raw)
	}
}
