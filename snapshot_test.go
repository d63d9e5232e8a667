package divscrape_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"divscrape"
	"divscrape/internal/statecodec"
	"divscrape/internal/statecodec/codectest"
)

// TestSnapshotResumePair proves the facade's durability contract: stop a
// replay at event k, Snapshot, Resume in a "new process" (a fresh pair
// set), and the verdict stream over the remaining events is identical to an
// uninterrupted run's.
func TestSnapshotResumePair(t *testing.T) {
	gen, err := divscrape.NewGenerator(divscrape.GeneratorConfig{Seed: 5, Duration: 3 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	events, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	k := len(events) / 2

	full, err := divscrape.NewDetectorSet()
	if err != nil {
		t.Fatal(err)
	}
	var want [][]divscrape.Verdict
	for i := range events {
		v := make([]divscrape.Verdict, full.Len())
		mustInspect(t, full, events[i].Entry, v)
		if i >= k {
			want = append(want, v)
		}
	}

	head, err := divscrape.NewDetectorSet()
	if err != nil {
		t.Fatal(err)
	}
	v := make([]divscrape.Verdict, head.Len())
	for i := 0; i < k; i++ {
		mustInspect(t, head, events[i].Entry, v)
	}
	var state bytes.Buffer
	if err := divscrape.Snapshot(&state, head); err != nil {
		t.Fatal(err)
	}

	resumed, err := divscrape.Resume(bytes.NewReader(state.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := k; i < len(events); i++ {
		mustInspect(t, resumed, events[i].Entry, v)
		if !slices.Equal(v, want[i-k]) {
			t.Fatalf("verdict %d diverged after resume", i)
		}
	}
}

// mustInspect is InspectInto for a run in which no detector may panic.
func mustInspect(t *testing.T, set *divscrape.DetectorSet, e divscrape.Entry, out []divscrape.Verdict) {
	t.Helper()
	if err := set.InspectInto(e, out); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRejectsDamage: every failure mode is a typed error, never a
// panic or a silently wrong pair.
func TestResumeRejectsDamage(t *testing.T) {
	gen, err := divscrape.NewGenerator(divscrape.GeneratorConfig{Seed: 6, Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := divscrape.NewDetectorSet()
	if err != nil {
		t.Fatal(err)
	}
	v := make([]divscrape.Verdict, pair.Len())
	if err := gen.Run(func(ev divscrape.Event) error {
		return pair.InspectInto(ev.Entry, v)
	}); err != nil {
		t.Fatal(err)
	}
	var state bytes.Buffer
	if err := divscrape.Snapshot(&state, pair); err != nil {
		t.Fatal(err)
	}

	// Truncation.
	if _, err := divscrape.Resume(bytes.NewReader(state.Bytes()[:state.Len()/2])); err == nil {
		t.Error("truncated snapshot resumed")
	}
	// Payload damage → checksum failure.
	damaged := bytes.Clone(state.Bytes())
	damaged[len(damaged)/2] ^= 0x10
	if _, err := divscrape.Resume(bytes.NewReader(damaged)); !errors.Is(err, divscrape.ErrSnapshotChecksum) {
		t.Errorf("damaged snapshot: err = %v, want ErrSnapshotChecksum", err)
	}
	// Version mismatch → typed error.
	wrongVersion := bytes.Clone(state.Bytes())
	wrongVersion[4] ^= 0x7F
	var ve *divscrape.SnapshotVersionError
	if _, err := divscrape.Resume(bytes.NewReader(wrongVersion)); !errors.As(err, &ve) {
		t.Errorf("wrong-version snapshot: err = %v, want *SnapshotVersionError", err)
	}
	// Not a snapshot at all.
	if _, err := divscrape.Resume(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage resumed")
	}

	// Well-framed payloads holding what no writer emits: a product-id list
	// with a negative, repeated or out-of-order id, and a User-Agent count
	// list with a repeated key, unsorted keys or a zero count.
	at := time.Date(2018, 3, 13, 9, 0, 0, 0, time.UTC)
	for i, req := range []struct{ ua, path string }{
		{"agent-aa/1.0", "/product/70001"},
		{"agent-aa/1.0", "/product/70009"},
		{"agent-zz/1.0", "/"},
		{"agent-zz/1.0", "/"},
	} {
		mustInspect(t, pair, divscrape.Entry{
			RemoteAddr: "10.9.8.7", Identity: "-", AuthUser: "-",
			Time: at.Add(time.Duration(i) * time.Second), Method: "GET", Path: req.path,
			Proto: "HTTP/1.1", Status: 200, Bytes: 1000, Referer: "-", UserAgent: req.ua,
		}, v)
	}
	state.Reset()
	if err := divscrape.Snapshot(&state, pair); err != nil {
		t.Fatal(err)
	}
	payload := state.Bytes()[14 : state.Len()-8] // between the header and the checksum
	resume := func(p []byte) error {
		w := statecodec.NewWriter()
		for _, b := range p {
			w.Uint8(b)
		}
		var framed bytes.Buffer
		if err := statecodec.Encode(&framed, w); err != nil {
			return err
		}
		_, err := divscrape.Resume(&framed)
		return err
	}
	find, rewrites := codectest.BadIDLists(70001, 70009)
	codectest.RejectRewrites(t, payload, resume, find, rewrites)
	uaCounts := codectest.StringCounts
	codectest.RejectRewrites(t, payload, resume, uaCounts("agent-aa/1.0", 2, "agent-zz/1.0", 2), map[string][]byte{
		"repeated key":    uaCounts("agent-aa/1.0", 2, "agent-aa/1.0", 2),
		"descending keys": uaCounts("agent-zz/1.0", 2, "agent-aa/1.0", 2),
		"zero count":      uaCounts("agent-aa/1.0", 2, "agent-zz/1.0", 0),
	})
}

// TestFailedRestoreLeavesPairReset: a pair whose RestoreFrom fails must
// behave like a fresh pair, never as a half-restored mix of one restored
// and one empty detector.
func TestFailedRestoreLeavesPairReset(t *testing.T) {
	gen, err := divscrape.NewGenerator(divscrape.GeneratorConfig{Seed: 7, Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	events, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}

	warm, err := divscrape.NewDetectorSet()
	if err != nil {
		t.Fatal(err)
	}
	vv := make([]divscrape.Verdict, warm.Len())
	for i := range events {
		mustInspect(t, warm, events[i].Entry, vv)
	}
	var state bytes.Buffer
	if err := divscrape.Snapshot(&state, warm); err != nil {
		t.Fatal(err)
	}

	if _, err := divscrape.Resume(bytes.NewReader(state.Bytes()[:state.Len()-40])); err == nil {
		t.Fatal("truncated snapshot resumed")
	}

	// Truncate inside the second (behavioural) detector's section, so the
	// enricher and commercial sections restore before the failure, then
	// restore into the warm pair: it must come out fully reset.
	payload := state.Bytes()[14 : state.Len()-48]
	victim := warm
	if err := victim.RestoreFrom(statecodec.NewReader(payload)); err == nil {
		t.Fatal("corrupt payload accepted")
	}
	fresh, err := divscrape.NewDetectorSet()
	if err != nil {
		t.Fatal(err)
	}
	fv := make([]divscrape.Verdict, fresh.Len())
	for i := 0; i < 500 && i < len(events); i++ {
		mustInspect(t, victim, events[i].Entry, vv)
		mustInspect(t, fresh, events[i].Entry, fv)
		if !slices.Equal(vv, fv) {
			t.Fatalf("verdict %d differs from a fresh pair after failed restore", i)
		}
	}
}
