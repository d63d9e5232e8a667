package httpguard

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"divscrape/internal/faultinject"
	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
)

// testdata/documents/{pair,trio}.golden were written by the commit before
// Verdicts, ShardState and ShardHealth became views over the side list
// (50a84ba), when they still had one named field per side — from a
// checkout of it, with this file copied in:
//
//	go test ./httpguard -run TestGuardDocumentsMatchTheParent -write-parent-documents
//
// Each holds a 2-shard tagging guard's State and Health documents and the
// X-Scrape-Verdict values it answered with, after documentRequests
// requests of parentStateEvents on the events' own clock, the arcane side
// quarantined near the end. Regenerate them only from that commit: written
// by this build they would prove nothing.
var writeParentDocuments = flag.Bool("write-parent-documents", false,
	"write testdata/documents (only meaningful on the parent commit named in documents_test.go)")

const (
	documentRequests = 6000
	// documentPanicAt is the request before which the arcane side's fault
	// point is armed: late enough that the side is still quarantined, an
	// hour's backoff away from its restore, when the documents are read.
	documentPanicAt = documentRequests - 40
)

// eventRequest is the live request an access-log entry records.
func eventRequest(e *logfmt.Entry) *http.Request {
	req := httptest.NewRequest(e.Method, e.Path, nil)
	req.RemoteAddr = e.RemoteAddr + ":40000"
	req.Header.Set("User-Agent", e.UserAgent)
	if e.Referer != "-" {
		req.Header.Set("Referer", e.Referer)
	}
	return req
}

// guardDocuments serves the request script through a pair or trio guard
// and renders what the golden pins.
func guardDocuments(t *testing.T, traj bool) []byte {
	t.Helper()
	t.Cleanup(faultinject.Reset)
	events := parentStateEvents(t)[:documentRequests]
	i := 0
	g := newGuard(t, Config{
		Policy:            policyOf(mitigate.Tag()),
		EnableTrajectory:  traj,
		Shards:            2,
		QuarantineBackoff: time.Hour,
		Now:               func() time.Time { return events[i].Entry.Time },
		Sleep:             func(time.Duration) {},
	})
	h := g.Wrap(okHandler())
	tags := map[string]int{}
	seq := fnv.New64a()
	for i = range events {
		if i == documentPanicAt {
			faultinject.Enable("shard.inspect.arcane", faultinject.Fault{Panic: "arcane bug", Times: 1})
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, eventRequest(&events[i].Entry))
		if v := rec.Header().Get("X-Scrape-Verdict"); v != "" {
			tags[v]++
			fmt.Fprintf(seq, "%d %s\n", i, v)
		}
	}

	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", "  ")
	out.WriteString("state:\n")
	if err := enc.Encode(g.State()); err != nil {
		t.Fatal(err)
	}
	out.WriteString("health:\n")
	if err := enc.Encode(g.Health()); err != nil {
		t.Fatal(err)
	}
	out.WriteString("X-Scrape-Verdict:\n")
	values := make([]string, 0, len(tags))
	for v := range tags {
		values = append(values, v)
	}
	sort.Strings(values)
	for _, v := range values {
		fmt.Fprintf(&out, "%s %d\n", v, tags[v])
	}
	fmt.Fprintf(&out, "sequence fnv64a %016x\n", seq.Sum64())
	return out.Bytes()
}

// The State and Health documents and the verdict header a guard answers
// with are what operators and their tooling read: building the guard from
// a side list of any length must leave every byte of them as the named
// slots wrote them.
func TestGuardDocumentsMatchTheParent(t *testing.T) {
	for _, tc := range []struct {
		name string
		traj bool
	}{
		{"pair", false},
		{"trio", true},
	} {
		path := filepath.Join("testdata", "documents", tc.name+".golden")
		got := guardDocuments(t, tc.traj)
		if *writeParentDocuments {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: documents differ from the parent's %s:\n%s", tc.name, path, got)
		}
	}
}
