package mitigate

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"divscrape/internal/statecodec"
	"divscrape/internal/statecodec/codectest"
)

// "1.2.3.4" is filed by number and "01.2.3.4" by string; they are two
// clients today as two strings, and must stay two through Apply, Sweep,
// snapshot and restore, and digest replication.
func TestCanonicalAndOtherSpellingsStayApart(t *testing.T) {
	const quad, padded = "1.2.3.4", "01.2.3.4"
	t0 := time.Date(2018, 3, 11, 0, 0, 0, 0, time.UTC)
	t1 := t0.Add(3 * time.Hour)
	e := newEngines(t, 1)[0]
	e.Apply(padded, t0, Assessment{Score: 0.1})
	for i := 0; i < 4; i++ {
		e.Apply(quad, t1.Add(time.Duration(i)*time.Second), Assessment{Alerted: true, Score: 1})
	}
	apart := func(what string, engines ...*Engine) {
		t.Helper()
		n := 0
		for _, e := range engines {
			n += e.Len()
		}
		at := func(k string) *Engine { return engines[partOf(k, len(engines))] }
		if n != 2 || at(quad).Level(quad) != Block || at(padded).Level(padded) != Allow {
			t.Fatalf("%s: %d clients, %q on %v, %q on %v; want 2, block and allow",
				what, n, quad, at(quad).Level(quad), padded, at(padded).Level(padded))
		}
	}
	apart("after Apply", e)

	w := statecodec.NewWriter()
	e.SnapshotInto(w)
	restored := newEngines(t, 3)
	if err := RestorePartitioned(statecodec.NewReader(w.Bytes()), restored, func(k string) int { return partOf(k, 3) }); err != nil {
		t.Fatal(err)
	}
	apart("after restore", restored...)
	again := statecodec.NewWriter()
	SnapshotMerged(again, restored)
	if !bytes.Equal(again.Bytes(), w.Bytes()) {
		t.Fatal("restored engines re-snapshot to different bytes")
	}

	replica := newEngines(t, 1)[0]
	var keys []string
	e.DigestsSince(time.Time{}, func(d ClientDigest) {
		keys = append(keys, d.Key)
		if !replica.MergeDigest(d) {
			t.Fatalf("digest of %q not merged into an empty engine", d.Key)
		}
	})
	slices.Sort(keys)
	if !slices.Equal(keys, []string{padded, quad}) {
		t.Fatalf("digests name %q, want %q and %q", keys, padded, quad)
	}
	apart("after MergeDigest", replica)

	// Only the padded spelling has sat idle past IdleTTL.
	if n := e.Sweep(t1.Add(10 * time.Second)); n != 1 {
		t.Fatalf("Sweep evicted %d clients, want 1", n)
	}
	if e.Len() != 1 || e.Level(quad) != Block {
		t.Fatalf("after the sweep %d clients, %q on %v; want 1 on block", e.Len(), quad, e.Level(quad))
	}
}

// engineSet is a key-partitioned fleet of engines behind one snapshot.
type engineSet []*Engine

func (s engineSet) SnapshotInto(w *statecodec.Writer) { SnapshotMerged(w, s) }

func (s engineSet) RestoreFrom(r *statecodec.Reader) error {
	return RestorePartitioned(r, s, func(k string) int { return partOf(k, len(s)) })
}

// A restore of any bytes across three engines either fails or leaves a
// fleet that re-snapshots to canonical bytes, holding no more clients than
// the payload names; none panics. The seed mixes every kind of key the
// index files: canonical quads, other spellings of IPv4, IPv6 and a name.
func FuzzRestorePartitioned(f *testing.F) {
	seed := newEngines(f, 1)[0]
	at := time.Date(2018, 3, 11, 0, 0, 0, 0, time.UTC)
	for i, k := range []string{"10.0.0.1", "192.168.1.200", "010.0.0.1", "+10.0.0.1", "1.2.3.04", "2001:db8::1", "::ffff:10.0.0.1", "client-7"} {
		for n := 0; n <= i; n++ {
			seed.Apply(k, at.Add(time.Duration(10*i+n)*time.Second), Assessment{Alerted: n%2 == 0, Score: 0.9})
		}
	}
	seed.ChallengePassed("10.0.0.1", at.Add(time.Minute))
	w := statecodec.NewWriter()
	seed.SnapshotInto(w)
	// The payload names its clients after the tag and four tallies.
	named := func(p []byte) int { return codectest.NamedAt(p, 2+4*8) }
	clients := func(r codectest.Restorer) int {
		n := 0
		for _, e := range r.(engineSet) {
			n += e.Len()
		}
		return n
	}
	codectest.FuzzRestore(f, [][]byte{w.Bytes()}, engineSet(newEngines(f, 3)), engineSet(newEngines(f, 2)), clients, named)
}
