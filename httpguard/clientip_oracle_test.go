package httpguard

import (
	"net"
	"net/http"
	"net/netip"
	"strings"
)

// The first client-address derivation, which joined the X-Forwarded-For
// instances and split the chain into a slice: clientIP's oracle. It is
// kept for what it is — the rules written out on strings, easy to read —
// now that the guard walks the chain in place: FuzzClientIP holds clientIP
// to it request for request.
func clientIPOracle(trusted trustedNets, r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	if !trusted.contains(host) {
		return host
	}
	if xff := strings.Join(r.Header.Values("X-Forwarded-For"), ","); xff != "" {
		raw := strings.Split(xff, ",")
		// Empty elements are separator artefacts, not forged hops.
		hops := raw[:0]
		for _, h := range raw {
			if s := strings.TrimSpace(h); s != "" {
				hops = append(hops, s)
			}
		}
		for i := len(hops) - 1; i >= 0; i-- {
			hop := hops[i]
			if _, err := netip.ParseAddr(hop); err != nil {
				break // forged or malformed chain: trust nothing to its left
			}
			if !trusted.contains(hop) {
				return hop
			}
			if i == 0 {
				return hop // every hop trusted: the leftmost
			}
		}
	}
	if xr := strings.TrimSpace(r.Header.Get("X-Real-IP")); xr != "" {
		if _, err := netip.ParseAddr(xr); err == nil {
			return xr
		}
	}
	return host
}
