package httpguard

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestClientIPMalformedAndEmptyForwardedEntries pins the fallback
// contract for damaged X-Forwarded-For chains: empty elements (trailing
// commas, doubled separators, empty header instances) are separator
// artefacts and must not discard the valid client address around them,
// while genuinely malformed entries still poison everything to their
// left and fall back to the peer address.
func TestClientIPMalformedAndEmptyForwardedEntries(t *testing.T) {
	cases := []struct {
		name string
		xff  []string // one element per header instance
		want string
	}{
		{"trailing comma", []string{"203.0.113.9,"}, "203.0.113.9"},
		{"leading comma", []string{",203.0.113.9"}, "203.0.113.9"},
		{"doubled separator", []string{"203.0.113.9,, 10.0.0.2"}, "203.0.113.9"},
		{"spaces only element", []string{"203.0.113.9,   , 10.0.0.2"}, "203.0.113.9"},
		{"empty header instance", []string{"", "203.0.113.9"}, "203.0.113.9"},
		{"empty instance between hops", []string{"203.0.113.9", "", "10.0.0.2"}, "203.0.113.9"},
		{"whole header empty", []string{""}, "10.0.0.1"},
		{"only commas", []string{",,,"}, "10.0.0.1"},
		{"garbage entry falls back", []string{"203.0.113.9, garbage"}, "10.0.0.1"},
		{"garbage left of client kept", []string{"garbage, 203.0.113.9"}, "203.0.113.9"},
		{"garbage then trailing comma", []string{"garbage, 203.0.113.9,"}, "203.0.113.9"},
		{"port suffix is malformed", []string{"203.0.113.9:443"}, "10.0.0.1"},
		{"ipv6 client", []string{"2001:db8::7,"}, "2001:db8::7"},
	}
	g := newGuard(t, Config{TrustedProxies: []string{"10.0.0.0/8"}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, "/", nil)
			req.RemoteAddr = "10.0.0.1:443"
			req.Header.Del("X-Forwarded-For")
			for _, v := range tc.xff {
				req.Header.Add("X-Forwarded-For", v)
			}
			if got := g.clientIP(req); got != tc.want {
				t.Errorf("clientIP = %q, want %q", got, tc.want)
			}
		})
	}
}

// forwardedRequest is a request from peer carrying one X-Forwarded-For
// instance per "\n"-separated piece of xff and likewise for X-Real-IP; an
// empty string sends no instance.
func forwardedRequest(peer, xff, realIP string) *http.Request {
	r := &http.Request{RemoteAddr: peer, Header: http.Header{}}
	if xff != "" {
		r.Header["X-Forwarded-For"] = strings.Split(xff, "\n")
	}
	if realIP != "" {
		r.Header["X-Real-IP"] = strings.Split(realIP, "\n")
	}
	return r
}

// longChain is n trusted hops with client, when non-empty, on their left.
func longChain(client string, n int) string {
	var b strings.Builder
	b.WriteString(client)
	for i := 0; i < n; i++ {
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "10.%d.%d.%d", i>>16&255, i>>8&255, i&255)
	}
	return b.String()
}

// FuzzClientIP holds the in-place chain walk to the join-and-split oracle
// on arbitrary peers, trusted-proxy lists (comma-separated; entries that
// do not parse are dropped) and multi-instance forwarding headers: the two
// agree, and the address is always the peer's, a hop of the chain, or the
// X-Real-IP value.
func FuzzClientIP(f *testing.F) {
	const trusted = "10.0.0.0/8,2001:db8:1::/48,192.0.2.1"
	for _, c := range []struct{ peer, trusted, xff, realIP string }{
		{"10.0.0.1:443", trusted, "203.0.113.9", ""},
		{"10.0.0.1:443", trusted, "203.0.113.9,", ""},
		{"10.0.0.1:443", trusted, ",,203.0.113.9,,10.0.0.2,,", ""},
		{"10.0.0.1:443", trusted, " 203.0.113.9 ,\t10.0.0.2 ", ""},
		{"10.0.0.1:443", trusted, "203.0.113.9\n\n10.0.0.2", ""},
		{"10.0.0.1:443", trusted, "garbage, 203.0.113.9", "198.51.100.4"},
		{"10.0.0.1:443", trusted, "203.0.113.9, garbage", "198.51.100.4"},
		{"10.0.0.1:443", trusted, "203.0.113.9, garbage", " 198.51.100.4 \nbogus"},
		{"10.0.0.1:443", trusted, "2001:db8::7, 2001:db8:1::2", ""},
		{"[2001:db8:1::1]:443", trusted, "fe80::1%eth0, 2001:db8:1::9", ""},
		{"10.0.0.1:443", trusted, "fe80::1%25eth0", ""},
		{"10.0.0.1:443", trusted, "::ffff:10.0.0.3, 10.0.0.2", ""},
		{"10.0.0.1:443", trusted, "10.0.0.7, 10.0.0.2", ""},
		{"10.0.0.1:443", trusted, ",,,", "203.0.113.7"},
		{"10.0.0.1", trusted, "203.0.113.9", ""},
		{"192.0.2.1:80", trusted, "203.0.113.9:443", ""},
		{"203.0.113.50:443", trusted, "10.0.0.2", "10.0.0.3"},
		{"10.0.0.1:443", "", "203.0.113.9", ""},
		{"10.0.0.1:443", trusted, longChain("", 10_000), ""},
		{"10.0.0.1:443", trusted, longChain("203.0.113.9", 10_000), ""},
	} {
		f.Add(c.peer, c.trusted, c.xff, c.realIP)
	}
	f.Fuzz(func(t *testing.T, peer, trustedList, xff, realIP string) {
		var nets trustedNets
		for _, s := range strings.Split(trustedList, ",") {
			if p, err := parseTrustedProxies([]string{s}); err == nil {
				nets = append(nets, p...)
			}
		}
		r := forwardedRequest(peer, xff, realIP)
		got := (&Guard{trusted: nets}).clientIP(r)
		if want := clientIPOracle(nets, r); got != want {
			t.Fatalf("peer %q, trusted %q, X-Forwarded-For %q, X-Real-IP %q: clientIP = %q, oracle %q",
				peer, trustedList, xff, realIP, got, want)
		}
		host, _, err := net.SplitHostPort(peer)
		if err != nil {
			host = peer
		}
		named := got == host || got == strings.TrimSpace(r.Header.Get("X-Real-IP"))
		for _, v := range r.Header.Values("X-Forwarded-For") {
			for _, hop := range strings.Split(v, ",") {
				named = named || got == strings.TrimSpace(hop)
			}
		}
		if !named {
			t.Fatalf("clientIP = %q is neither the peer %q, a hop of %q nor X-Real-IP %q", got, peer, xff, realIP)
		}
	})
}

// A chain's length costs no memory: a 10 000-hop chain is walked where
// net/http left it, to the client on its far left or, all trusted, to its
// leftmost hop.
func TestClientIPLongChainAllocatesNothing(t *testing.T) {
	g := newGuard(t, Config{TrustedProxies: []string{"10.0.0.0/8"}})
	for _, c := range []struct{ client, want string }{
		{"203.0.113.9", "203.0.113.9"},
		{"", "10.0.0.0"},
	} {
		r := forwardedRequest("10.255.0.1:443", longChain(c.client, 10_000), "")
		if got := g.clientIP(r); got != c.want {
			t.Fatalf("clientIP over %d hops = %q, want %q", 10_000, got, c.want)
		}
		if allocs := testing.AllocsPerRun(20, func() { g.clientIP(r) }); allocs != 0 {
			t.Errorf("clientIP over a 10 000-hop chain allocates %.1f, want 0", allocs)
		}
	}
}
