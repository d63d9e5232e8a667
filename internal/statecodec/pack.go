package statecodec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Zero-byte packing, Cap'n Proto's scheme, for payloads held in memory
// (the guard's restore points): the format's fixed-width little-endian
// integers are mostly zero bytes, and packing drops them. Pack and Unpack
// are a transform of the bytes, beside the format and not part of it:
// nothing packed is written to a file.
//
// The payload's length comes first, as a uvarint; the payload follows as
// 8-byte words, the last one zero-padded. Each word is a tag byte whose
// bit j says byte j is non-zero, then those bytes in order. A zero tag is
// followed by a count (0–255) of further all-zero words; a 0xFF tag, after
// its eight bytes, by a count of words copied raw — the words after it
// with at most one zero byte, which packing would not shrink.

// maxRun bounds the count after a zero or 0xFF tag.
const maxRun = 255

// maxUnpackRatio is the most output a packed byte can stand for: a zero
// tag and its count, two bytes, are at most 256 zero words.
const maxUnpackRatio = (maxRun + 1) * 8 / 2

// Pack appends b, zero-byte packed, to dst and returns the extended slice.
func Pack(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	words := (len(b) + 7) / 8
	for i := 0; i < words; {
		x := word(b, i)
		i++
		switch tag := nonZero(x); tag {
		case 0:
			n := 0
			for n < maxRun && i < words && word(b, i) == 0 {
				n, i = n+1, i+1
			}
			dst = append(dst, 0, byte(n))
		case 0xFF:
			dst = binary.LittleEndian.AppendUint64(append(dst, 0xFF), x)
			n := 0
			for n < maxRun && i+n < words && bits.OnesCount8(nonZero(word(b, i+n))) >= 7 {
				n++
			}
			dst = append(dst, byte(n))
			for ; n > 0; n, i = n-1, i+1 {
				dst = binary.LittleEndian.AppendUint64(dst, word(b, i))
			}
		default:
			dst = append(dst, tag)
			for m := tag; m != 0; m &= m - 1 {
				dst = append(dst, byte(x>>(8*bits.TrailingZeros8(m))))
			}
		}
	}
	return dst
}

// word returns b's i-th 8-byte word, little-endian, zero-padded past b.
func word(b []byte, i int) uint64 {
	if off := 8 * i; off+8 <= len(b) {
		return binary.LittleEndian.Uint64(b[off:])
	}
	var w [8]byte
	copy(w[:], b[8*i:])
	return binary.LittleEndian.Uint64(w[:])
}

// nonZero returns x's tag: bit j set when byte j of x is not zero.
func nonZero(x uint64) uint8 {
	const lo7, hi = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	// The high bit of each byte is set when the byte is not zero; the
	// multiply gathers the eight high bits into the top byte.
	t := ((x & lo7) + lo7 | x) & hi
	return uint8((t >> 7) * 0x0102040810204080 >> 56)
}

// Unpack appends the payload packed in p to dst and returns the extended
// slice. It returns ErrCorrupt for any p that Pack could not have written
// — a truncation, a run past the declared length, trailing bytes, non-zero
// padding — and refuses, before allocating, a length p's bytes could not
// produce; it never panics.
func Unpack(dst, p []byte) ([]byte, error) {
	n, k := binary.Uvarint(p)
	if k <= 0 {
		return dst, fmt.Errorf("%w: packed length header unreadable", ErrCorrupt)
	}
	p = p[k:]
	if n > maxPayload || n > uint64(len(p))*maxUnpackRatio {
		return dst, fmt.Errorf("%w: packed length %d, more than %d packed bytes can hold", ErrCorrupt, n, len(p))
	}
	start, words := len(dst), int(n+7)/8
	dst = slices.Grow(dst, 8*words)
	out := dst[start : start+8*words]
	fail := func(w int, what string) ([]byte, error) {
		return dst, fmt.Errorf("%w: packed payload %s at word %d of %d", ErrCorrupt, what, w, words)
	}
	for w := 0; w < words; w++ {
		if len(p) == 0 {
			return fail(w, "truncated")
		}
		tag, o := p[0], out[8*w:8*w+8]
		p = p[1:]
		switch tag {
		case 0:
			if len(p) == 0 {
				return fail(w, "truncated")
			}
			run := int(p[0])
			p = p[1:]
			if w+run >= words {
				return fail(w, "zero run past the length")
			}
			clear(out[8*w : 8*(w+1+run)])
			w += run
		case 0xFF:
			if len(p) < 9 {
				return fail(w, "truncated")
			}
			run := int(p[8])
			if w+run >= words || len(p)-9 < 8*run {
				return fail(w, "raw run past the length")
			}
			copy(o, p[:8])
			copy(out[8*(w+1):], p[9:9+8*run])
			p = p[9+8*run:]
			w += run
		default:
			for j := range o {
				o[j] = 0
				if tag&(1<<j) != 0 {
					if len(p) == 0 {
						return fail(w, "truncated")
					}
					o[j], p = p[0], p[1:]
				}
			}
		}
	}
	if len(p) != 0 {
		return dst, fmt.Errorf("%w: %d bytes after the packed payload", ErrCorrupt, len(p))
	}
	for _, c := range out[n:] {
		if c != 0 {
			return dst, fmt.Errorf("%w: packed payload padded with non-zero bytes", ErrCorrupt)
		}
	}
	return dst[:start+int(n)], nil
}
