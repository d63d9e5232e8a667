package cluster_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"divscrape/internal/cluster"
	"divscrape/internal/mitigate"
	"divscrape/internal/statecodec"
)

func sampleDelta() *cluster.Delta {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return &cluster.Delta{
		From:         "node-a:9301",
		Seq:          42,
		SentUnixNano: base.UnixNano(),
		Kind:         cluster.DeltaIncremental,
		Ladders: []mitigate.ClientDigest{
			{Key: "203.0.113.7", Score: 2.5, Level: mitigate.Challenge,
				Challenged: 3, PassUntil: base.Add(time.Hour), LastSeen: base},
			{Key: "198.51.100.9", Score: 0.4, Level: mitigate.Allow, LastSeen: base.Add(-time.Minute)},
		},
	}
}

func TestDeltaFrameRoundTrip(t *testing.T) {
	d := sampleDelta()
	frame, err := d.EncodeFrame()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := cluster.DecodeFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.From != d.From || got.Seq != d.Seq || got.SentUnixNano != d.SentUnixNano || got.Kind != d.Kind {
		t.Fatalf("header mismatch: %+v vs %+v", got, d)
	}
	if len(got.Ladders) != 2 || !got.Ladders[0].PassUntil.Equal(d.Ladders[0].PassUntil) ||
		got.Ladders[0].Key != "203.0.113.7" || got.Ladders[0].Level != mitigate.Challenge {
		t.Fatalf("ladders: %+v", got.Ladders)
	}
	if l := got.Ladders[1]; l.Key != "198.51.100.9" || l.Score != 0.4 || !l.LastSeen.Equal(d.Ladders[1].LastSeen) {
		t.Fatalf("second ladder: %+v", l)
	}
}

func TestDeltaEmptyIsValidHeartbeat(t *testing.T) {
	d := &cluster.Delta{From: "n", Seq: 1, Kind: cluster.DeltaFull}
	frame, err := d.EncodeFrame()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := cluster.DecodeFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Ladders) != 0 {
		t.Fatalf("empty delta grew payload: %+v", got)
	}
}

func TestDeltaFrameCorruptionTyped(t *testing.T) {
	frame, err := sampleDelta().EncodeFrame()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Every single-byte flip fails with a typed codec error, never panics.
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x5A
		_, err := cluster.DecodeFrame(mut)
		if err == nil {
			continue // flip in slack the checksum may tolerate? it must not:
		}
		if !statecodec.Damaged(err) && !errors.Is(err, statecodec.ErrBadMagic) {
			var ve *statecodec.VersionError
			if !errors.As(err, &ve) {
				t.Fatalf("flip at %d: untyped error %v", i, err)
			}
		}
	}
	// Truncations likewise.
	for n := 0; n < len(frame); n++ {
		if _, err := cluster.DecodeFrame(frame[:n]); err == nil {
			t.Fatalf("truncation to %d decoded", n)
		}
	}
	// Trailing garbage is rejected.
	if _, err := cluster.DecodeFrame(append(append([]byte(nil), frame...), 0, 0, 0)); err == nil {
		t.Fatalf("trailing bytes accepted")
	}
}

// A frame in the layout before ladders were all that replicated — tag
// 0x434C, one ladder, an empty overlay section and one session digest —
// fails at the tag with a typed error, and the node counts it as bad and
// merges nothing from it. Nodes on either side of that change do not
// interoperate.
func TestDeltaRefusesTheRetiredLayout(t *testing.T) {
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	w := statecodec.NewWriter()
	w.Tag(0x434C)
	w.String("b")
	w.Uint64(1)
	w.Int64(at.UnixNano())
	w.Uint8(cluster.DeltaIncremental)
	w.Uint32(1) // one ladder
	w.String("203.0.113.7")
	w.Float64(2.5)
	w.Uint8(uint8(mitigate.Block))
	w.Int(0)
	w.Time(time.Time{})
	w.Time(at)
	w.Uint32(0) // no overlay entries
	w.Uint32(1) // one session digest: side, address, agent hash, stamp
	w.Uint8(0)
	w.Uint32(0xCB007107)
	w.Uint64(0)
	w.Int64(at.UnixNano())
	var buf bytes.Buffer
	if err := statecodec.Encode(&buf, w); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	if _, err := cluster.DecodeFrame(frame); !errors.Is(err, statecodec.ErrCorrupt) {
		t.Fatalf("retired layout decoded with err %v, want ErrCorrupt", err)
	}

	backend := newMemBackend()
	n, err := cluster.New(cluster.Config{ID: "a", Peers: []string{"b"}, Backend: backend,
		Transport: nopTransport{}, Now: func() time.Time { return at }})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Receive(frame); !errors.Is(err, statecodec.ErrCorrupt) {
		t.Fatalf("Receive: %v, want ErrCorrupt", err)
	}
	if st := n.Status(); st.BadFrames != 1 || st.DeltasReceived != 0 || st.EntriesApplied != 0 {
		t.Fatalf("status after a retired frame: %d bad, %d received, %d applied; want 1, 0, 0",
			st.BadFrames, st.DeltasReceived, st.EntriesApplied)
	}
	if _, ok := backend.ladder("203.0.113.7"); ok {
		t.Fatal("a ladder from a retired frame was merged")
	}
}

func TestDeltaFrameChecksumCatchesFlips(t *testing.T) {
	frame, err := sampleDelta().EncodeFrame()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	flips := 0
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0xFF
		if _, err := cluster.DecodeFrame(mut); err != nil {
			flips++
		}
	}
	if flips != len(frame) {
		t.Fatalf("only %d of %d byte flips detected", flips, len(frame))
	}
}
