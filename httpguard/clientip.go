package httpguard

import (
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"strings"
)

// Client-address derivation behind reverse proxies. Detection and
// enforcement key on the client IP; without this, a guard deployed behind
// any load balancer or CDN sees every request arrive from the proxy's
// address — all traffic collapses into one "client" (and one shard), and
// the first scraper to trip the ladder takes the whole site down with it.
// Forwarding headers are only honoured when the immediate peer is listed
// in Config.TrustedProxies, because any client can fabricate them.

// trustedNets is the parsed Config.TrustedProxies list.
type trustedNets []netip.Prefix

// parseTrustedProxies accepts bare IPs ("10.0.0.1") and CIDR prefixes
// ("10.0.0.0/8").
func parseTrustedProxies(list []string) (trustedNets, error) {
	if len(list) == 0 {
		return nil, nil
	}
	nets := make(trustedNets, 0, len(list))
	for _, s := range list {
		if strings.ContainsRune(s, '/') {
			p, err := netip.ParsePrefix(s)
			if err != nil {
				return nil, fmt.Errorf("trusted proxy %q: %w", s, err)
			}
			nets = append(nets, p.Masked())
			continue
		}
		a, err := netip.ParseAddr(s)
		if err != nil {
			return nil, fmt.Errorf("trusted proxy %q: %w", s, err)
		}
		nets = append(nets, netip.PrefixFrom(a, a.BitLen()))
	}
	return nets, nil
}

func (t trustedNets) contains(host string) bool {
	if len(t) == 0 {
		return false
	}
	a, err := netip.ParseAddr(host)
	if err != nil {
		return false
	}
	return t.containsAddr(a)
}

func (t trustedNets) containsAddr(a netip.Addr) bool {
	a = a.Unmap()
	for _, p := range t {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

// clientIP derives the address detection should key on. Directly
// connected clients are identified by the TCP peer. When the peer is a
// trusted proxy, the X-Forwarded-For chain is walked right to left past
// any further trusted hops; the first untrusted address is the client.
// X-Real-IP is the fallback for proxies that only set that header. A
// malformed or absent forwarding chain falls back to the peer address.
//
// The chain is the client's to write, so its length must cost nothing:
// the walk reads the header values where net/http put them, and the
// address it returns is a substring of one, as the value would be.
func (g *Guard) clientIP(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	if !g.trusted.contains(host) {
		return host
	}
	if hop, ok := g.trusted.forwardedClient(r.Header.Values("X-Forwarded-For")); ok {
		return hop
	}
	if xr := strings.TrimSpace(r.Header.Get("X-Real-IP")); xr != "" {
		if _, err := netip.ParseAddr(xr); err == nil {
			return xr
		}
	}
	return host
}

// forwardedClient walks the X-Forwarded-For header instances — one chain,
// as if joined with commas — from the right, cutting each hop off with
// LastIndexByte, and returns the first hop t does not trust. Empty hops —
// a trailing comma, doubled separators, an empty header instance — are
// separator artefacts, not forged hops, and are skipped rather than
// discarding the valid client address to their left. A malformed hop ends
// the walk with no answer: a forged chain is trusted no further. When
// every hop is trusted the leftmost is the closest thing to a client the
// chain names.
func (t trustedNets) forwardedClient(values []string) (string, bool) {
	leftmost := ""
	for v := len(values) - 1; v >= 0; v-- {
		rest := values[v]
		for {
			cut := strings.LastIndexByte(rest, ',')
			if hop := strings.TrimSpace(rest[cut+1:]); hop != "" {
				a, err := netip.ParseAddr(hop)
				if err != nil {
					return "", false
				}
				if !t.containsAddr(a) {
					return hop, true
				}
				leftmost = hop
			}
			if cut < 0 {
				break
			}
			rest = rest[:cut]
		}
	}
	return leftmost, leftmost != ""
}
