package cluster_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"divscrape/internal/cluster"
	"divscrape/internal/mitigate"
)

// mergeCounter is a Backend that only counts the merges that reach it.
type mergeCounter struct{ merges int }

func (*mergeCounter) LadderDigestsSince(time.Time, func(mitigate.ClientDigest)) {}
func (b *mergeCounter) MergeLadderDigest(mitigate.ClientDigest) bool            { b.merges++; return true }
func (*mergeCounter) SetEscalationFrozen(bool)                                  {}

type nopTransport struct{}

func (nopTransport) Send(string, []byte) error { return nil }

// FuzzClusterHandler posts arbitrary bytes to a node's delta endpoint, as
// any host that can reach the cluster listener may. The handler answers
// 200, 400, 405 or 413 and nothing else, never panics, and a frame it
// refuses reaches no merge: a frame is decoded whole, and its sender
// checked, before the first entry is applied.
func FuzzClusterHandler(f *testing.F) {
	at := time.Date(2018, 3, 11, 9, 0, 0, 0, time.UTC)
	frame := func(from string) []byte {
		d := cluster.Delta{From: from, Seq: 1, SentUnixNano: at.UnixNano(), Kind: cluster.DeltaIncremental,
			Ladders: []mitigate.ClientDigest{
				{Key: "10.0.0.1", Score: 2.5, Level: mitigate.Block, LastSeen: at},
				{Key: "10.0.0.2", Score: 1.5, Level: mitigate.Tarpit, LastSeen: at},
			}}
		b, err := d.EncodeFrame()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	good := frame("b")
	f.Add("POST", good)
	f.Add("POST", frame("stranger"))
	f.Add("POST", good[:len(good)-1])
	f.Add("POST", append(append([]byte(nil), good...), 0))
	f.Add("GET", good)
	f.Add("POST", []byte{})
	f.Fuzz(func(t *testing.T, method string, body []byte) {
		if method != "GET" && method != "PUT" {
			method = "POST" // a method net/http can carry; a few that are not POST
		}
		backend := &mergeCounter{}
		n, err := cluster.New(cluster.Config{ID: "a", Peers: []string{"b"}, Backend: backend,
			Transport: nopTransport{}, Now: func() time.Time { return at }})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		cluster.Handler(n).ServeHTTP(rec, httptest.NewRequest(method, "http://a/cluster/delta", bytes.NewReader(body)))
		if method == "POST" && bytes.Equal(body, good) && (rec.Code != http.StatusOK || backend.merges != 2) {
			t.Fatalf("a peer's frame answered %d after %d merges, want 200 after 2: %s", rec.Code, backend.merges, rec.Body)
		}
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusMethodNotAllowed, http.StatusRequestEntityTooLarge:
			if backend.merges != 0 {
				t.Fatalf("answered %d after %d merges", rec.Code, backend.merges)
			}
		default:
			t.Fatalf("answered %d", rec.Code)
		}
	})
}
