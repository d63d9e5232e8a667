package statecodec_test

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"divscrape/internal/cluster"
	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/mitigate"
	"divscrape/internal/statecodec"
	"divscrape/internal/trajectory"
	"divscrape/internal/workload"
)

// typedDecodeError reports whether err is one of the codec's documented
// failure modes — the only errors hostile bytes are allowed to produce.
func typedDecodeError(err error) bool {
	var ve *statecodec.VersionError
	return errors.Is(err, statecodec.ErrCorrupt) ||
		errors.Is(err, statecodec.ErrBadMagic) ||
		errors.Is(err, statecodec.ErrChecksum) ||
		errors.As(err, &ve)
}

// deltaSeeds builds realistic cluster delta frames — the frames a peer
// actually puts on the wire — so the fuzzer starts from the newest
// production encoding rather than rediscovering its shape.
func deltaSeeds(f *testing.F) [][]byte {
	f.Helper()
	base := time.Unix(1520700000, 0)
	full := &cluster.Delta{
		From:         "node-a:9301",
		Seq:          7,
		SentUnixNano: base.UnixNano(),
		Kind:         cluster.DeltaFull,
		Ladders: []mitigate.ClientDigest{
			{Key: "203.0.113.7", Score: 3.1, Level: mitigate.Block,
				Challenged: 9, PassUntil: base.Add(time.Hour), LastSeen: base},
			{Key: "198.51.100.9", Score: 0.4, Level: mitigate.Allow, LastSeen: base},
		},
	}
	heartbeat := &cluster.Delta{From: "node-b:9302", Seq: 1, Kind: cluster.DeltaIncremental}
	var seeds [][]byte
	for _, d := range []*cluster.Delta{full, heartbeat} {
		frame, err := d.EncodeFrame()
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, frame)
	}
	return seeds
}

// trajectorySeeds serialises a warmed trajectory-detector snapshot — the
// newest detector frame the codec carries (tag 0x544A, nested per-session
// blocks) — so the fuzzer mutates the production layout rather than
// rediscovering it.
func trajectorySeeds(f *testing.F) [][]byte {
	f.Helper()
	gen, err := workload.NewGenerator(workload.Config{Seed: 77, Duration: 45 * time.Minute})
	if err != nil {
		f.Fatal(err)
	}
	events, err := gen.Generate()
	if err != nil {
		f.Fatal(err)
	}
	d, err := trajectory.New(trajectory.Config{})
	if err != nil {
		f.Fatal(err)
	}
	enr := detector.NewEnricher(iprep.BuildFeed())
	var req detector.Request
	var v detector.Verdict
	for i := range events {
		enr.EnrichInto(&req, events[i].Entry)
		d.InspectInto(&req, &v)
	}
	w := statecodec.NewWriter()
	d.SnapshotInto(w)
	var buf bytes.Buffer
	if err := statecodec.Encode(&buf, w); err != nil {
		f.Fatal(err)
	}
	return [][]byte{buf.Bytes()}
}

// FuzzDecode feeds arbitrary bytes through the container decoder and, when
// a frame validates, drains the payload with every primitive in rotation.
// The invariant under fuzz: corrupt or truncated input returns an error —
// it never panics, never spins, and never allocates beyond the input size.
func FuzzDecode(f *testing.F) {
	// Seed with a well-formed frame, near-miss corruptions of it, and the
	// trivially broken inputs.
	w := statecodec.NewWriter()
	w.Tag(0x0101)
	w.Uint64(42)
	w.String("seed")
	w.Time(time.Unix(1520700000, 0))
	w.Float64(2.5)
	var good bytes.Buffer
	if err := statecodec.Encode(&good, w); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	for _, cut := range []int{0, 4, 13, 14, good.Len() - 1} {
		f.Add(good.Bytes()[:cut])
	}
	flipped := bytes.Clone(good.Bytes())
	flipped[5] ^= 0x40 // version byte
	f.Add(flipped)
	f.Add([]byte("DVSC"))
	f.Add([]byte{})
	// Cluster delta frames: the newest — and most structured — production
	// payload this codec carries, plus truncated and bit-flipped variants.
	for _, frame := range deltaSeeds(f) {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		mut := bytes.Clone(frame)
		mut[len(mut)/3] ^= 0x80
		f.Add(mut)
	}
	// Trajectory detector snapshots: the session-store frame the third
	// detector adds, with truncated and bit-flipped variants.
	for _, frame := range trajectorySeeds(f) {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		mut := bytes.Clone(frame)
		mut[2*len(mut)/3] ^= 0x08
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := statecodec.Decode(bytes.NewReader(data))
		if err != nil {
			if !typedDecodeError(err) {
				t.Fatalf("Decode returned untyped error %v", err)
			}
			return
		}
		// Frame validated: drain the payload through every read shape.
		// Whatever the bytes, reads must terminate with either clean EOF
		// or a sticky ErrCorrupt.
		for r.Err() == nil && r.Remaining() > 0 {
			r.Uint8()
			r.Uint16()
			r.Uint32()
			r.Uint64()
			r.Bool()
			r.Float64()
			_ = r.String()
			r.Time()
			r.Duration()
			r.Count(16)
			_ = r.Expect(0x0101)
		}
		if err := r.Err(); err != nil && !errors.Is(err, statecodec.ErrCorrupt) {
			t.Fatalf("Reader failed with untyped error %v", err)
		}
	})
}

// FuzzDecodeDelta aims arbitrary bytes at the full cluster frame decoder
// — container validation plus the delta's own structural checks. Hostile
// peers get exactly two outcomes: a valid ladder-only Delta or a typed
// error. Never
// a panic, never an unchecked out-of-range field.
func FuzzDecodeDelta(f *testing.F) {
	for _, frame := range deltaSeeds(f) {
		f.Add(frame)
		for _, cut := range []int{4, 14, len(frame) / 2, len(frame) - 1} {
			if cut >= 0 && cut < len(frame) {
				f.Add(frame[:cut])
			}
		}
		mut := bytes.Clone(frame)
		mut[len(mut)-3] ^= 0x01 // inside the checksum trailer
		f.Add(mut)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := cluster.DecodeFrame(data)
		if err != nil {
			if !typedDecodeError(err) {
				t.Fatalf("DecodeFrame returned untyped error %v", err)
			}
			return
		}
		// A frame that validated must also re-encode: the decoded form is
		// structurally sound, not just parseable.
		if d.Kind != cluster.DeltaIncremental && d.Kind != cluster.DeltaFull {
			t.Fatalf("decoded delta with invalid kind %d", d.Kind)
		}
		for _, l := range d.Ladders {
			if l.Level > mitigate.Block {
				t.Fatalf("decoded ladder rung %d out of range", l.Level)
			}
		}
		if _, err := d.EncodeFrame(); err != nil {
			t.Fatalf("validated delta failed to re-encode: %v", err)
		}
	})
}

// FuzzRoundTrip drives the primitive layer with fuzzed values and asserts
// exact round-trips through a framed container, including the checksum.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(0), false, 0.0, "", int64(0))
	f.Add(uint64(math.MaxUint64), int64(math.MinInt64), true, math.Inf(1), "scraper", int64(1520700000123456789))
	f.Add(uint64(1), int64(-1), false, math.NaN(), "\x00\xff", int64(-62135596800))

	f.Fuzz(func(t *testing.T, u uint64, i int64, b bool, fl float64, s string, unixNano int64) {
		w := statecodec.NewWriter()
		w.Uint64(u)
		w.Int64(i)
		w.Bool(b)
		w.Float64(fl)
		w.String(s)
		ts := time.Unix(unixNano/1e9, unixNano%1e9)
		w.Time(ts)

		var buf bytes.Buffer
		if err := statecodec.Encode(&buf, w); err != nil {
			t.Fatal(err)
		}
		r, err := statecodec.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("Decode of freshly encoded frame: %v", err)
		}
		if got := r.Uint64(); got != u {
			t.Errorf("Uint64 = %d, want %d", got, u)
		}
		if got := r.Int64(); got != i {
			t.Errorf("Int64 = %d, want %d", got, i)
		}
		if got := r.Bool(); got != b {
			t.Errorf("Bool = %v, want %v", got, b)
		}
		if got := math.Float64bits(r.Float64()); got != math.Float64bits(fl) {
			t.Errorf("Float64 bits = %#x, want %#x", got, math.Float64bits(fl))
		}
		if got := r.String(); got != s {
			t.Errorf("String = %q, want %q", got, s)
		}
		if got := r.Time(); !got.Equal(ts) {
			t.Errorf("Time = %v, want %v", got, ts)
		}
		if err := r.Err(); err != nil {
			t.Fatalf("round-trip reader failed: %v", err)
		}
		if r.Remaining() != 0 {
			t.Errorf("Remaining = %d after full drain", r.Remaining())
		}
	})
}
