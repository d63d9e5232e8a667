// Package statecodec is the durable state plane's wire format: a
// versioned, deterministic binary codec every stateful layer serialises
// itself through. The same state always encodes to the same bytes —
// map-backed structures sort their keys before writing — so snapshots can
// be diffed, content-addressed and compared across processes, and the
// checkpoint-resume equivalence proofs in internal/pipeline can assert on
// byte streams rather than on floating-point tolerances.
//
// # Layering
//
// The codec has two levels. Writer and Reader are the primitive level:
// fixed-width little-endian integers, IEEE-754 floats, length-prefixed
// strings and wall-clock timestamps, with 16-bit section tags (Tag /
// Expect) that catch layer misalignment early. Encode and Decode are the
// container level: they frame a Writer's payload with a magic number, a
// format version and an FNV-1a checksum, so a snapshot file read back by
// a newer (or corrupted by anything) binary fails loudly with a typed
// error instead of silently restoring garbage.
//
// # Error model
//
// Both halves use sticky errors. A Writer never fails on well-formed use
// (it writes to memory) but records a failure injected via Fail — the
// hook layers use to report unsupported state — and Encode refuses to
// frame a failed writer. A Reader records the first decode failure and
// returns zero values from then on; callers check Err (or the error from
// a RestoreFrom) once at the end instead of threading an error through
// every primitive read. All reads are bounds-checked against the
// remaining payload, including collection lengths before allocation, so
// corrupt or truncated input returns an error and never panics or
// over-allocates — the property the package fuzz tests pin down.
package statecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"divscrape/internal/fnvhash"
)

// Version is the snapshot format version Encode stamps into the
// container header. Bump it whenever any layer's serialised layout
// changes incompatibly; Decode rejects every other version with a
// *VersionError.
const Version uint16 = 1

// magic identifies a divscrape state snapshot container.
var magic = [4]byte{'D', 'V', 'S', 'C'}

// maxPayload bounds the declared payload length Decode will buffer
// (defence against a corrupt header demanding an absurd allocation).
const maxPayload = 1 << 30

// Typed decode errors. ErrBadMagic, ErrChecksum and ErrCorrupt are
// sentinel values (wrap-compared with errors.Is); version mismatch is the
// typed *VersionError so callers can report both sides of the mismatch.
var (
	// ErrBadMagic reports input that is not a state snapshot at all.
	ErrBadMagic = errors.New("statecodec: bad magic (not a state snapshot)")
	// ErrChecksum reports a payload whose checksum does not match.
	ErrChecksum = errors.New("statecodec: checksum mismatch (snapshot corrupted)")
	// ErrCorrupt reports structurally invalid payload contents.
	ErrCorrupt = errors.New("statecodec: corrupt snapshot")
)

// Damaged reports whether err is snapshot damage — corruption, a
// checksum mismatch, bad magic or a version mismatch — as opposed to an
// I/O or configuration error. A caller holding older snapshot
// generations (internal/checkpoint) may fall back past damage to the
// previous generation; any other failure must surface, because an older
// file would fail the same way.
func Damaged(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrChecksum) || errors.Is(err, ErrBadMagic)
}

// VersionError reports a snapshot written by an incompatible format
// version. It unwraps to ErrCorrupt so coarse callers can treat it as a
// decode failure while precise ones inspect the versions.
type VersionError struct {
	// Got is the version stamped in the snapshot; Want is this binary's.
	Got, Want uint16
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("statecodec: snapshot version %d, this binary reads version %d", e.Got, e.Want)
}

// Unwrap lets errors.Is(err, ErrCorrupt) match version mismatches too.
func (e *VersionError) Unwrap() error { return ErrCorrupt }

// Snapshotter is the contract every stateful layer implements to
// participate in the durable state plane: SnapshotInto serialises the
// layer's dynamic state (configuration is not serialised — restore
// targets must be constructed with the same configuration), and
// RestoreFrom rebuilds that state in place. RestoreFrom must leave the
// receiver unusable-but-consistent only by returning an error; it must
// never panic on corrupt input.
type Snapshotter interface {
	SnapshotInto(w *Writer)
	RestoreFrom(r *Reader) error
}

// Writer accumulates a snapshot payload in memory. The zero value is
// ready to use; Reset recycles the buffer across snapshots.
type Writer struct {
	buf []byte
	err error
	// ints and strs are sort space lent out by IntScratch and
	// StringScratch; never part of the payload.
	ints []int
	strs []string
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Reset clears the payload (keeping the buffer) and the sticky error, so
// a long-lived writer can frame periodic checkpoints without reallocating.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.err = nil
}

// Len returns the payload size so far.
func (w *Writer) Len() int { return len(w.buf) }

// Bytes returns the raw payload (no container framing). The slice aliases
// the writer's buffer and is invalidated by further writes or Reset.
func (w *Writer) Bytes() []byte { return w.buf }

// Err returns the sticky failure injected via Fail, or nil.
func (w *Writer) Err() error { return w.err }

// Fail records a snapshot failure (e.g. a layer that cannot serialise
// its state). The first failure sticks; Encode refuses a failed writer.
func (w *Writer) Fail(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// IntScratch returns the writer's reusable []int, for a Snapshotter that
// writes a set in sorted order: it empties the slice, fills and sorts it,
// and stores it back, so a writer that snapshots many sessions — every
// periodic checkpoint — sorts them all in one buffer rather than
// allocating one per session. The contents are valid until the next
// Snapshotter borrows it.
func (w *Writer) IntScratch() *[]int { return &w.ints }

// StringScratch is IntScratch for sets of strings.
func (w *Writer) StringScratch() *[]string { return &w.strs }

// Uint8 writes one byte.
func (w *Writer) Uint8(v uint8) { w.buf = append(w.buf, v) }

// Uint16 writes a fixed-width little-endian uint16.
func (w *Writer) Uint16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// Uint32 writes a fixed-width little-endian uint32.
func (w *Writer) Uint32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// Uint64 writes a fixed-width little-endian uint64.
func (w *Writer) Uint64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Int writes a signed integer as its two's-complement uint64 image.
func (w *Writer) Int(v int) { w.Uint64(uint64(int64(v))) }

// Int64 writes a signed 64-bit integer.
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// Bool writes a boolean as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.Uint8(1)
	} else {
		w.Uint8(0)
	}
}

// Float64 writes the IEEE-754 bit pattern, so every value (including
// NaNs and signed zeros) round-trips exactly.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// String writes a length-prefixed UTF-8 (or arbitrary byte) string.
func (w *Writer) String(s string) {
	w.Uint32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Duration writes a time.Duration as its nanosecond count.
func (w *Writer) Duration(d time.Duration) { w.Int64(int64(d)) }

// Time writes a wall-clock instant as Unix seconds + nanoseconds. The
// monotonic reading and location are deliberately dropped: restored state
// lives in a different process, where only the absolute instant is
// meaningful. The zero time round-trips to a time for which IsZero
// remains true.
func (w *Writer) Time(t time.Time) {
	w.Int64(t.Unix())
	w.Uint32(uint32(t.Nanosecond()))
}

// Tag writes a 16-bit section marker. Each layer opens its block with a
// distinct tag and restore sides Expect it, so a misaligned or shuffled
// snapshot fails at the section boundary instead of deserialising one
// layer's bytes as another's.
func (w *Writer) Tag(tag uint16) { w.Uint16(tag) }

// Reader decodes a payload produced by Writer. Construct with NewReader
// (or via Decode for framed containers). All methods are safe on corrupt
// input: the first failure sticks, subsequent reads return zero values,
// and no read allocates more than the remaining payload could hold.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over a raw payload.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread payload bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// fail records the first decode failure.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// take returns the next n payload bytes, or nil after recording a
// truncation failure.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.fail("truncated: need %d bytes, have %d", n, r.Remaining())
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Uint8 reads one byte.
func (r *Reader) Uint8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Uint16 reads a little-endian uint16.
func (r *Reader) Uint16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// Uint32 reads a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Uint64 reads a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads a signed integer written by Writer.Int.
func (r *Reader) Int() int { return int(int64(r.Uint64())) }

// Int64 reads a signed 64-bit integer.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Bool reads a boolean; any byte other than 0 or 1 is corrupt.
func (r *Reader) Bool() bool {
	switch v := r.Uint8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid bool byte %d", v)
		return false
	}
}

// Float64 reads an IEEE-754 bit pattern.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// String reads a length-prefixed string. The declared length is checked
// against the remaining payload before any allocation.
func (r *Reader) String() string {
	n := int(r.Uint32())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Duration reads a time.Duration.
func (r *Reader) Duration() time.Duration { return time.Duration(r.Int64()) }

// Time reads an instant written by Writer.Time.
func (r *Reader) Time() time.Time {
	sec := r.Int64()
	nsec := r.Uint32()
	if r.err != nil {
		return time.Time{}
	}
	if nsec >= 1e9 {
		r.fail("invalid nanoseconds %d", nsec)
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec))
}

// Expect consumes a section tag and fails unless it matches.
func (r *Reader) Expect(tag uint16) error {
	got := r.Uint16()
	if r.err == nil && got != tag {
		r.fail("section tag %#04x, want %#04x", got, tag)
	}
	return r.err
}

// Count reads a collection length and validates it against the remaining
// payload given a minimum per-element encoding size, so a corrupt length
// can never drive an oversized allocation or a long spin. It returns 0
// once the reader has failed.
func (r *Reader) Count(minElemBytes int) int {
	n := int(r.Uint32())
	if r.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	// Division form: n*minElemBytes would overflow int on 32-bit builds
	// for adversarial counts, defeating the bound.
	if n < 0 || n > r.Remaining()/minElemBytes {
		r.fail("implausible count %d (%d bytes/elem, %d remaining)", n, minElemBytes, r.Remaining())
		return 0
	}
	return n
}

// Encode frames w's payload into dst: magic, version, payload length,
// payload, FNV-1a 64 checksum. It fails if the writer carries a sticky
// error, so an unserialisable layer surfaces here rather than producing
// a plausible-looking but incomplete snapshot.
func Encode(dst io.Writer, w *Writer) error {
	if err := w.Err(); err != nil {
		return fmt.Errorf("statecodec: encode: %w", err)
	}
	var hdr [14]byte
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	binary.LittleEndian.PutUint64(hdr[6:14], uint64(len(w.buf)))
	if _, err := dst.Write(hdr[:]); err != nil {
		return fmt.Errorf("statecodec: encode header: %w", err)
	}
	if _, err := dst.Write(w.buf); err != nil {
		return fmt.Errorf("statecodec: encode payload: %w", err)
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], fnvhash.Bytes64(w.buf))
	if _, err := dst.Write(sum[:]); err != nil {
		return fmt.Errorf("statecodec: encode checksum: %w", err)
	}
	return nil
}

// Decode validates a framed container from src and returns a Reader over
// its payload. Magic, version, length and checksum are all checked before
// any payload byte is handed to a layer: a wrong-version snapshot returns
// a *VersionError, a damaged one ErrChecksum or ErrCorrupt.
func Decode(src io.Reader) (*Reader, error) {
	var hdr [14]byte
	if _, err := io.ReadFull(src, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
		return nil, &VersionError{Got: v, Want: Version}
	}
	n := binary.LittleEndian.Uint64(hdr[6:14])
	if n > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrCorrupt, n)
	}
	payload := make([]byte, int(n))
	if _, err := io.ReadFull(src, payload); err != nil {
		return nil, fmt.Errorf("%w: short payload: %v", ErrCorrupt, err)
	}
	var sum [8]byte
	if _, err := io.ReadFull(src, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint64(sum[:]) != fnvhash.Bytes64(payload) {
		return nil, ErrChecksum
	}
	return NewReader(payload), nil
}
