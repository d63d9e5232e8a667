package cluster_test

import (
	"testing"
	"time"

	"divscrape/internal/cluster"
	"divscrape/internal/mitigate"
)

// benchDelta builds a delta of realistic mid-size: 64 ladder digests.
func benchDelta() *cluster.Delta {
	base := time.Unix(1520700000, 0)
	d := &cluster.Delta{
		From:         "node-a:9301",
		Seq:          99,
		SentUnixNano: base.UnixNano(),
		Kind:         cluster.DeltaIncremental,
	}
	for i := 0; i < 64; i++ {
		d.Ladders = append(d.Ladders, mitigate.ClientDigest{
			Key:        "203.0.113." + string(rune('0'+i%10)),
			Score:      float64(i) * 0.31,
			Level:      mitigate.Action(i % 4),
			Challenged: i % 9,
			PassUntil:  base.Add(time.Duration(i) * time.Minute),
			LastSeen:   base.Add(time.Duration(i) * time.Second),
		})
	}
	return d
}

// BenchmarkClusterDelta measures one full replication hop: encode the
// delta into a framed container, then validate and decode it back.
func BenchmarkClusterDelta(b *testing.B) {
	d := benchDelta()
	frame, err := d.EncodeFrame()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := d.EncodeFrame()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cluster.DecodeFrame(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterDeltaDecode(b *testing.B) {
	frame, err := benchDelta().EncodeFrame()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.DecodeFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterRoute(b *testing.B) {
	clock := newSimClock()
	n, err := cluster.New(cluster.Config{
		ID:        "a",
		Peers:     []string{"b", "c", "d", "e"},
		Backend:   newMemBackend(),
		Transport: &failTransport{clock: clock, base: clock.Now()},
		Now:       clock.Now,
	})
	if err != nil {
		b.Fatal(err)
	}
	n.Tick(clock.Now())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Route(uint32(i))
	}
}

// TestRouteZeroAllocs pins the request-path promise: routing a client
// through the ring with liveness checks allocates nothing.
func TestRouteZeroAllocs(t *testing.T) {
	clock := newSimClock()
	n, err := cluster.New(cluster.Config{
		ID:        "a",
		Peers:     []string{"b", "c"},
		Backend:   newMemBackend(),
		Transport: &failTransport{clock: clock, base: clock.Now()},
		Now:       clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Tick(clock.Now())
	ip := uint32(0xCB007107)
	if allocs := testing.AllocsPerRun(500, func() {
		n.Route(ip)
		ip++
	}); allocs != 0 {
		t.Fatalf("Route allocates %.1f per call", allocs)
	}
}
