// Package codectest holds the corrupt-payload check that the tests of the
// stateful packages share: take a real snapshot, rewrite one known stretch
// of it into something no writer emits, and require the restore to refuse
// it as corrupt rather than take it silently.
package codectest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"divscrape/internal/statecodec"
)

// Ints encodes ids as consecutive Writer.Int values.
func Ints(ids ...int) []byte {
	w := statecodec.NewWriter()
	for _, id := range ids {
		w.Int(id)
	}
	return w.Bytes()
}

// StringCounts encodes two (key, count) entries as a string-keyed count list
// holds them: Writer.String then Writer.Uint64, twice.
func StringCounts(k1 string, c1 uint64, k2 string, c2 uint64) []byte {
	w := statecodec.NewWriter()
	w.String(k1)
	w.Uint64(c1)
	w.String(k2)
	w.Uint64(c2)
	return w.Bytes()
}

// RejectRewrites requires find to occur exactly once in payload and the
// untouched payload to restore; then, for every named rewrite, it replaces
// find with the rewrite and requires restore to fail with
// statecodec.ErrCorrupt. A rewrite may differ from find in length.
func RejectRewrites(t *testing.T, payload []byte, restore func(payload []byte) error, find []byte, rewrites map[string][]byte) {
	t.Helper()
	if n := bytes.Count(payload, find); n != 1 {
		t.Fatalf("the stretch to rewrite occurs %d times in the payload, want once", n)
	}
	if err := restore(payload); err != nil {
		t.Fatalf("untouched payload: %v", err)
	}
	for name, rewrite := range rewrites {
		bad := bytes.Replace(payload, find, rewrite, 1)
		if err := restore(bad); !errors.Is(err, statecodec.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// BadIDLists are rewrites of the ascending id pair (a, b) as it sits in a
// snapshot: each is a list an id set never writes.
func BadIDLists(a, b int) (find []byte, rewrites map[string][]byte) {
	return Ints(a, b), map[string][]byte{
		"negative id":    Ints(-a, b),
		"repeated id":    Ints(a, a),
		"descending ids": Ints(b, a),
	}
}

// Restorer is state a snapshot restores into: a detector, or a set of
// engines behind one restore.
type Restorer interface {
	SnapshotInto(w *statecodec.Writer)
	RestoreFrom(r *statecodec.Reader) error
}

// FuzzRestore fuzzes a restore from real snapshots. Every seed is added
// whole, cut in half and with one bit flipped. For each input, into and
// again (two instances, reused across inputs: a restore replaces all
// state) must either refuse it, or take it into a state that holds at
// most as many clients as the input names, and re-snapshots to canonical
// bytes: bytes that restore into again and snapshot back unchanged. A
// panic fails the target.
func FuzzRestore(f *testing.F, seeds [][]byte, into, again Restorer, clients func(Restorer) int, named func(payload []byte) int) {
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2])
		flipped := bytes.Clone(s)
		flipped[len(flipped)*2/3] ^= 0x10
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if into.RestoreFrom(statecodec.NewReader(payload)) != nil {
			return
		}
		if n, max := clients(into), named(payload); n > max {
			t.Fatalf("restore holds %d clients, the payload names %d", n, max)
		}
		first := statecodec.NewWriter()
		into.SnapshotInto(first)
		if first.Err() != nil {
			t.Fatalf("re-snapshot of an accepted payload: %v", first.Err())
		}
		if err := again.RestoreFrom(statecodec.NewReader(first.Bytes())); err != nil {
			t.Fatalf("re-snapshot of an accepted payload does not restore: %v", err)
		}
		second := statecodec.NewWriter()
		again.SnapshotInto(second)
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-snapshot is not canonical: %d bytes restore and snapshot to %d different bytes", first.Len(), second.Len())
		}
	})
}

// NamedAt reads the uint32 client count a payload names at offset off, or
// 0 when the payload is shorter.
func NamedAt(payload []byte, off int) int {
	if len(payload) < off+4 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(payload[off:]))
}
