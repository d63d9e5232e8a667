package statecodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"testing"
)

// The tag of a word is the mask of its non-zero bytes, as a byte loop
// reads it.
func TestNonZeroIsTheMaskOfNonZeroBytes(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100_000; i++ {
		// Mostly-zero words, so every byte pattern comes up.
		x := rng.Uint64() & rng.Uint64() & rng.Uint64()
		if i%7 == 0 {
			x = rng.Uint64()
		}
		var want uint8
		for j := 0; j < 8; j++ {
			if byte(x>>(8*j)) != 0 {
				want |= 1 << j
			}
		}
		if got := nonZero(x); got != want {
			t.Fatalf("nonZero(%#016x) = %08b, want %08b", x, got, want)
		}
	}
}

// Pack writes Cap'n Proto's packing after a uvarint length: a tagged word
// keeps its non-zero bytes, a zero tag counts the zero words after it, a
// 0xFF tag the raw words after it, and a short last word is zero-padded.
func TestPackWritesCapnProtosPacking(t *testing.T) {
	for _, c := range []struct {
		name       string
		in, packed []byte
	}{
		{"empty", nil, []byte{0}},
		{"tagged words",
			[]byte{0x08, 0, 0, 0, 0x03, 0, 0x02, 0, 0x19, 0, 0, 0, 0xaa, 0x01, 0, 0},
			[]byte{16, 0x51, 0x08, 0x03, 0x02, 0x31, 0x19, 0xaa, 0x01}},
		{"zero run", make([]byte, 24), []byte{24, 0, 2}},
		{"short last word", []byte{0, 0, 7}, []byte{3, 0x04, 7}},
		{"raw run",
			[]byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 0, 5, 6, 7, 8, 1, 0, 0, 0, 0, 0, 0, 1},
			[]byte{24, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 1, 1, 2, 3, 0, 5, 6, 7, 8, 0x81, 1, 1}},
	} {
		got := Pack(nil, c.in)
		if !bytes.Equal(got, c.packed) {
			t.Errorf("%s: Pack = % x, want % x", c.name, got, c.packed)
		}
		back, err := Unpack([]byte("kept"), got)
		if err != nil || string(back) != "kept"+string(c.in) {
			t.Errorf("%s: Unpack = % x, %v", c.name, back, err)
		}
	}
}

// Runs stop at 255 words: a longer stretch takes another tag.
func TestPackSplitsLongRuns(t *testing.T) {
	zeros := make([]byte, 8*600)
	if got := Pack(nil, zeros); !bytes.Equal(got[2:], []byte{0, 255, 0, 255, 0, 87}) {
		t.Fatalf("600 zero words packed as % x", got)
	}
	raw := bytes.Repeat([]byte{1}, 8*600)
	got := Pack(nil, raw)
	if len(got) != 2+3*(1+8+1)+597*8 {
		t.Fatalf("600 raw words packed into %d bytes", len(got))
	}
	for _, b := range [][]byte{zeros, raw} {
		if back, err := Unpack(nil, Pack(nil, b)); err != nil || !bytes.Equal(back, b) {
			t.Fatalf("round trip of %d bytes: %v", len(b), err)
		}
	}
}

// Unpack refuses whatever Pack could not have written, with ErrCorrupt.
func TestUnpackRejectsMalformedInput(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	for _, c := range []struct {
		name string
		in   []byte
	}{
		{"no header", nil},
		{"overlong header", bytes.Repeat([]byte{0x80}, 11)},
		{"length past what the bytes hold", append(huge, 0, 255)},
		{"length past a zero run's reach", []byte{0x81, 0x10, 0, 255}},
		{"truncated tag", []byte{8}},
		{"truncated word", []byte{8, 0x03, 1}},
		{"truncated zero run", []byte{8, 0}},
		{"truncated raw word", []byte{8, 0xff, 1, 2, 3}},
		{"zero run past the length", []byte{8, 0, 1}},
		{"raw run past the length", []byte{8, 0xff, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2}},
		{"trailing bytes", []byte{1, 0x01, 7, 0}},
		{"non-zero padding", []byte{1, 0x02, 7}},
	} {
		out, err := Unpack([]byte("kept"), c.in)
		if !errors.Is(err, ErrCorrupt) || string(out) != "kept" {
			t.Errorf("%s: Unpack(% x) = % x, %v", c.name, c.in, out, err)
		}
	}
}

// FuzzPack holds Pack and Unpack to each other: any bytes round-trip, and
// Unpack of arbitrary bytes returns a payload or ErrCorrupt, never panics,
// and never yields more than its input's bytes could encode.
func FuzzPack(f *testing.F) {
	w := NewWriter()
	w.Tag(0x5345)
	w.Int64(1520700000)
	w.String("Mozilla/5.0")
	w.Float64(0.25)
	w.Uint32(3)
	for _, seed := range [][]byte{nil, {0}, {0xff}, w.Bytes(), make([]byte, 64), Pack(nil, w.Bytes())} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p := Pack([]byte{1}, b)
		back, err := Unpack([]byte{2}, p[1:])
		if err != nil || back[0] != 2 || !bytes.Equal(back[1:], b) {
			t.Fatalf("round trip of % x through % x: % x, %v", b, p[1:], back, err)
		}
		out, err := Unpack(nil, b)
		switch {
		case err != nil && !errors.Is(err, ErrCorrupt):
			t.Fatalf("Unpack(% x) returned an untyped error %v", b, err)
		case err != nil && len(out) != 0:
			t.Fatalf("Unpack(% x) failed with %d bytes out", b, len(out))
		case len(out) > len(b)*maxUnpackRatio:
			t.Fatalf("%d packed bytes unpacked to %d", len(b), len(out))
		}
	})
}
