// Package iprep provides an IP reputation substrate: IPv4 parsing, a
// longest-prefix-match CIDR trie, reputation categories, and synthetic feed
// construction. Commercial bot-mitigation products (the paper's Distil
// Networks) lean heavily on reputation feeds — datacenter ranges, known
// proxy exits, verified search-engine ranges — so the commercial-style
// detector consumes this database on every request.
package iprep

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseIPv4 parses dotted-quad notation into a big-endian uint32.
func ParseIPv4(s string) (uint32, error) {
	ip, ok := IPv4(s)
	if !ok {
		return 0, fmt.Errorf("iprep: invalid IPv4 %q", s)
	}
	return ip, nil
}

// IPv4 is ParseIPv4 for the per-request paths: one pass over s, and no
// allocation, so a client whose address is not IPv4 costs no error value
// per line. Each octet is what strconv.Atoi accepts in at most three bytes
// — a sign is allowed — valued 0–255.
func IPv4(s string) (ip uint32, ok bool) {
	i := 0
	for octet := 0; octet < 4; octet++ {
		if octet > 0 {
			if i == len(s) || s[i] != '.' {
				return 0, false
			}
			i++
		}
		first := i
		n, j := digits(s, i, i+3)
		if j == i && i < len(s) && (s[i] == '+' || s[i] == '-') {
			first++
			if n, j = digits(s, first, i+3); s[i] == '-' && n != 0 {
				return 0, false
			}
		}
		if j == first || n > 255 {
			return 0, false
		}
		ip, i = ip<<8|n, j
	}
	if i != len(s) {
		return 0, false
	}
	return ip, true
}

// CanonicalIPv4 is IPv4 for the strings FormatIPv4 renders and no
// others: ok holds exactly when FormatIPv4(ip) == s, so "01.2.3.4",
// "+1.2.3.4" and every other spelling IPv4 admits are refused. One pass
// over s, and no allocation.
func CanonicalIPv4(s string) (ip uint32, ok bool) {
	i := 0
	for octet := 0; octet < 4; octet++ {
		if octet > 0 {
			if i == len(s) || s[i] != '.' {
				return 0, false
			}
			i++
		}
		n, j := digits(s, i, i+3)
		if j == i || n > 255 || (j-i > 1 && s[i] == '0') {
			return 0, false
		}
		ip, i = ip<<8|n, j
	}
	if i != len(s) {
		return 0, false
	}
	return ip, true
}

// digits reads the decimal digits of s from i up to end, returning their
// value and where they stop.
func digits(s string, i, end int) (uint32, int) {
	n := uint32(0)
	for ; i < len(s) && i < end; i++ {
		d := s[i] - '0'
		if d > 9 {
			break
		}
		n = n*10 + uint32(d)
	}
	return n, i
}

// FormatIPv4 renders a big-endian uint32 as dotted-quad notation.
func FormatIPv4(ip uint32) string {
	var b [15]byte
	out := strconv.AppendUint(b[:0], uint64(ip>>24), 10)
	out = append(out, '.')
	out = strconv.AppendUint(out, uint64(ip>>16&0xff), 10)
	out = append(out, '.')
	out = strconv.AppendUint(out, uint64(ip>>8&0xff), 10)
	out = append(out, '.')
	out = strconv.AppendUint(out, uint64(ip&0xff), 10)
	return string(out)
}

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	// IP is the network address with host bits zeroed.
	IP uint32
	// Bits is the prefix length in [0, 32].
	Bits int
}

// ParseCIDR parses "a.b.c.d/len" notation.
func ParseCIDR(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("iprep: invalid CIDR %q: missing '/'", s)
	}
	ip, err := ParseIPv4(s[:slash])
	if err != nil {
		return Prefix{}, fmt.Errorf("iprep: invalid CIDR %q: %w", s, err)
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("iprep: invalid CIDR %q: bad prefix length", s)
	}
	return Prefix{IP: ip & maskFor(bits), Bits: bits}, nil
}

// MustCIDR parses a CIDR literal and panics on error; for package-level
// tables of well-formed constants only.
func MustCIDR(s string) Prefix {
	p, err := ParseCIDR(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() uint64 {
	return uint64(1) << (32 - uint(p.Bits))
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return FormatIPv4(p.IP) + "/" + strconv.Itoa(p.Bits)
}

// Nth returns the nth address within the prefix (wrapping within its size).
func (p Prefix) Nth(n uint64) uint32 {
	return p.IP + uint32(n%p.Size())
}

func maskFor(bits int) uint32 {
	if bits <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(bits))
}
