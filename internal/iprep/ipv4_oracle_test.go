package iprep

import (
	"strconv"
	"strings"
	"testing"
)

// atoiIPv4 is the parse IPv4 replaced: strconv.Atoi per octet, which
// allocates an error for every address it refuses. It stays as IPv4's
// oracle.
func atoiIPv4(s string) (uint32, bool) {
	var ip uint32
	rest := s
	for octet := 0; octet < 4; octet++ {
		part := rest
		if octet < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, false
			}
			part, rest = rest[:dot], rest[dot+1:]
		}
		if len(part) == 0 || len(part) > 3 {
			return 0, false
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n > 255 {
			return 0, false
		}
		ip = ip<<8 | uint32(n)
	}
	return ip, true
}

// IPv4 accepts exactly what the Atoi walk accepted, to the same number.
func FuzzIPv4(f *testing.F) {
	for _, s := range []string{
		"10.0.0.1", "255.255.255.255", "256.0.0.1", "+1.-0.00.9", "-1.0.0.0", "1..2.3", "1.2.3.4.5",
		"2001:db8::1", "not-an-address", "", "+.1.2.3", "1.2.3.4567", "1.2.3.0x1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := IPv4(s)
		want, wantOK := atoiIPv4(s)
		if got != want || ok != wantOK {
			t.Fatalf("IPv4(%q) = %#x, %v; the Atoi walk gives %#x, %v", s, got, ok, want, wantOK)
		}
		if _, err := ParseIPv4(s); (err == nil) != ok {
			t.Fatalf("ParseIPv4(%q) error %v, IPv4 ok %v", s, err, ok)
		}
	})
}

// CanonicalIPv4 admits exactly the strings FormatIPv4 renders, reads the
// address IPv4 reads from them, and allocates nothing.
func FuzzCanonicalIPv4(f *testing.F) {
	for _, s := range []string{
		"10.0.0.1", "0.0.0.0", "255.255.255.255", "01.2.3.4", "1.2.3.04", "+1.2.3.4", "-0.0.0.0",
		"1.2.3.00", "256.0.0.1", "1.2.3.4.", "1.2.3", "2001:db8::1", "", "1.2.3.4 ", "001.2.3.4",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ip, ok := CanonicalIPv4(s)
		v, parsed := IPv4(s)
		if canonical := parsed && FormatIPv4(v) == s; ok != canonical {
			t.Fatalf("CanonicalIPv4(%q) ok = %v; IPv4 reads %#x, %v, which FormatIPv4 renders %q", s, ok, v, parsed, FormatIPv4(v))
		}
		if ok && ip != v {
			t.Fatalf("CanonicalIPv4(%q) = %#x, IPv4 reads %#x", s, ip, v)
		}
		if allocs := testing.AllocsPerRun(1, func() { CanonicalIPv4(s) }); allocs != 0 {
			t.Fatalf("CanonicalIPv4(%q) allocates %.0f", s, allocs)
		}
	})
}

func TestIPv4RefusesWithoutAllocating(t *testing.T) {
	for _, s := range []string{"2001:db8::1", "not-an-address", "1.2.3.999", "-1.0.0.0"} {
		if allocs := testing.AllocsPerRun(100, func() { IPv4(s) }); allocs != 0 {
			t.Errorf("IPv4(%q) allocates %.0f", s, allocs)
		}
	}
}
