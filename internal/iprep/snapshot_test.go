package iprep

import (
	"testing"

	"divscrape/internal/statecodec"
)

func TestDBSnapshotRoundTrip(t *testing.T) {
	a := BuildFeed()
	// Simulate a runtime feed refresh before the snapshot.
	a.Insert(MustCIDR("203.0.113.0/24"), KnownScraper)
	w := statecodec.NewWriter()
	a.SnapshotInto(w)

	b := NewDB()
	if err := b.RestoreFrom(statecodec.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("Len %d vs %d", a.Len(), b.Len())
	}
	// Walking both tables must yield the same sequence (Walk order is
	// canonical), proving every prefix and category survived.
	type pc struct {
		p Prefix
		c Category
	}
	collect := func(db *DB) []pc {
		var out []pc
		db.Walk(func(p Prefix, c Category) bool {
			out = append(out, pc{p, c})
			return true
		})
		return out
	}
	pa, pb := collect(a), collect(b)
	if len(pa) != len(pb) {
		t.Fatalf("walk lengths differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("entry %d differs: %v vs %v", i, pa[i], pb[i])
		}
	}
	if cat, ok := b.Lookup(mustIP(t, "203.0.113.7")); !ok || cat != KnownScraper {
		t.Errorf("refreshed prefix lost: %v %v", cat, ok)
	}

	// Determinism: re-snapshotting the restored table gives identical bytes.
	w2 := statecodec.NewWriter()
	b.SnapshotInto(w2)
	if string(w.Bytes()) != string(w2.Bytes()) {
		t.Error("snapshot not stable across a round-trip")
	}
}

func TestDBRestoreRejectsCorruptEntries(t *testing.T) {
	w := statecodec.NewWriter()
	w.Tag(0x4902)
	w.Uint32(1)
	w.Uint32(0x0A000000)
	w.Uint8(40) // prefix length out of range
	w.Uint8(uint8(Datacenter))
	if err := NewDB().RestoreFrom(statecodec.NewReader(w.Bytes())); err == nil {
		t.Error("prefix length 40 accepted")
	}

	w = statecodec.NewWriter()
	w.Tag(0x4902)
	w.Uint32(1)
	w.Uint32(0x0A000000)
	w.Uint8(8)
	w.Uint8(200) // category out of range
	if err := NewDB().RestoreFrom(statecodec.NewReader(w.Bytes())); err == nil {
		t.Error("category 200 accepted")
	}
}

// TestDBRestoreFailureLeavesTableUntouched: a corrupt snapshot must not
// destroy the live reputation table it was meant to replace.
func TestDBRestoreFailureLeavesTableUntouched(t *testing.T) {
	db := BuildFeed()
	before := db.Len()
	cat, ok := db.Lookup(mustIP(t, "66.249.64.1"))

	w := statecodec.NewWriter()
	w.Tag(0x4902)
	w.Uint32(2)
	w.Uint32(0x0A000000)
	w.Uint8(8)
	w.Uint8(uint8(Datacenter))
	w.Uint32(0x0B000000)
	w.Uint8(40) // corrupt second entry
	w.Uint8(uint8(Datacenter))
	if err := db.RestoreFrom(statecodec.NewReader(w.Bytes())); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if db.Len() != before {
		t.Errorf("table size changed across failed restore: %d vs %d", db.Len(), before)
	}
	if cat2, ok2 := db.Lookup(mustIP(t, "66.249.64.1")); cat2 != cat || ok2 != ok {
		t.Error("lookup result changed across failed restore")
	}
}

func mustIP(t *testing.T, s string) uint32 {
	t.Helper()
	ip, err := ParseIPv4(s)
	if err != nil {
		t.Fatal(err)
	}
	return ip
}
