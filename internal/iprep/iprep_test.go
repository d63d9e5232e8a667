package iprep

import (
	"testing"
	"testing/quick"
)

// contains reports whether ip falls inside p.
func contains(p Prefix, ip uint32) bool { return ip&maskFor(p.Bits) == p.IP }

func TestParseFormatIPv4(t *testing.T) {
	tests := []struct {
		give string
		want uint32
	}{
		{"0.0.0.0", 0},
		{"255.255.255.255", 0xffffffff},
		{"10.0.0.1", 10<<24 | 1},
		{"192.168.1.2", 192<<24 | 168<<16 | 1<<8 | 2},
	}
	for _, tt := range tests {
		got, err := ParseIPv4(tt.give)
		if err != nil {
			t.Errorf("ParseIPv4(%q): %v", tt.give, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseIPv4(%q) = %#x, want %#x", tt.give, got, tt.want)
		}
		if back := FormatIPv4(got); back != tt.give {
			t.Errorf("FormatIPv4(%#x) = %q, want %q", got, back, tt.give)
		}
	}
}

func TestParseIPv4Errors(t *testing.T) {
	for _, bad := range []string{
		"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3",
		"-1.0.0.0", "1.2.3.4567",
	} {
		if _, err := ParseIPv4(bad); err == nil {
			t.Errorf("ParseIPv4(%q) succeeded", bad)
		}
	}
}

func TestIPv4RoundTripProperty(t *testing.T) {
	f := func(ip uint32) bool {
		back, err := ParseIPv4(FormatIPv4(ip))
		return err == nil && back == ip
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestParseCIDR(t *testing.T) {
	p, err := ParseCIDR("10.1.2.3/16")
	if err != nil {
		t.Fatal(err)
	}
	// Host bits are zeroed.
	if p.String() != "10.1.0.0/16" {
		t.Errorf("normalised prefix = %s, want 10.1.0.0/16", p)
	}
	if p.Size() != 1<<16 {
		t.Errorf("size = %d", p.Size())
	}
	in, _ := ParseIPv4("10.1.200.7")
	out, _ := ParseIPv4("10.2.0.1")
	if !contains(p, in) || contains(p, out) {
		t.Error("membership wrong")
	}
	if got := p.Nth(3); got != p.IP+3 {
		t.Errorf("Nth(3) = %#x", got)
	}
	// Nth wraps within the prefix.
	if got := p.Nth(p.Size() + 5); got != p.IP+5 {
		t.Errorf("Nth wrap = %#x", got)
	}

	for _, bad := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "x/8"} {
		if _, err := ParseCIDR(bad); err == nil {
			t.Errorf("ParseCIDR(%q) succeeded", bad)
		}
	}
}

func TestMustCIDRPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCIDR on invalid input did not panic")
		}
	}()
	MustCIDR("not-a-cidr")
}

func TestTrieLongestPrefixMatch(t *testing.T) {
	db := NewDB()
	db.Insert(MustCIDR("10.0.0.0/8"), Residential)
	db.Insert(MustCIDR("10.5.0.0/16"), Datacenter)
	db.Insert(MustCIDR("10.5.7.0/24"), KnownScraper)

	tests := []struct {
		ip   string
		want Category
		ok   bool
	}{
		{"10.1.1.1", Residential, true},
		{"10.5.1.1", Datacenter, true},
		{"10.5.7.200", KnownScraper, true},
		{"11.0.0.1", Unknown, false},
	}
	for _, tt := range tests {
		ip, err := ParseIPv4(tt.ip)
		if err != nil {
			t.Fatalf("parse %s: %v", tt.ip, err)
		}
		cat, ok := db.Lookup(ip)
		if cat != tt.want || ok != tt.ok {
			t.Errorf("Lookup(%s) = %v/%v, want %v/%v", tt.ip, cat, ok, tt.want, tt.ok)
		}
	}
}

func TestTrieOverwrite(t *testing.T) {
	db := NewDB()
	p := MustCIDR("172.16.0.0/12")
	db.Insert(p, Datacenter)
	db.Insert(p, KnownScraper) // feed refresh: last wins
	cat, ok := db.Lookup(MustCIDR("172.16.5.0/24").IP)
	if !ok || cat != KnownScraper {
		t.Errorf("overwritten category = %v", cat)
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	db := NewDB()
	db.Insert(Prefix{IP: 0, Bits: 0}, Residential)
	cat, ok := db.Lookup(0xdeadbeef)
	if !ok || cat != Residential {
		t.Error("/0 default route not matched")
	}
}

// Property: the trie agrees with a naive linear longest-prefix matcher.
func TestTrieAgainstNaiveProperty(t *testing.T) {
	type rule struct {
		p Prefix
		c Category
	}
	rules := []rule{
		{MustCIDR("10.0.0.0/8"), Residential},
		{MustCIDR("10.128.0.0/9"), Mobile},
		{MustCIDR("10.128.64.0/18"), Corporate},
		{MustCIDR("172.16.0.0/12"), Datacenter},
		{MustCIDR("172.16.99.0/24"), ProxyVPN},
		{MustCIDR("192.168.0.0/16"), TorExit},
		{MustCIDR("192.168.128.0/17"), SearchEngine},
		{MustCIDR("192.168.128.64/26"), KnownScraper},
	}
	db := NewDB()
	for _, r := range rules {
		db.Insert(r.p, r.c)
	}
	naive := func(ip uint32) (Category, bool) {
		best := -1
		var cat Category
		for _, r := range rules {
			if contains(r.p, ip) && r.p.Bits > best {
				best = r.p.Bits
				cat = r.c
			}
		}
		return cat, best >= 0
	}
	f := func(ip uint32) bool {
		gotCat, gotOK := db.Lookup(ip)
		wantCat, wantOK := naive(ip)
		if gotOK != wantOK {
			return false
		}
		return !gotOK || gotCat == wantCat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestBuildFeedCoverage(t *testing.T) {
	db := BuildFeed()
	tests := []struct {
		ranges []Prefix
		want   Category
	}{
		{ResidentialRanges, Residential},
		{MobileRanges, Mobile},
		{CorporateRanges, Corporate},
		{DatacenterRanges, Datacenter},
		{ProxyRanges, ProxyVPN},
		{TorExitRanges, TorExit},
		{SearchEngineRanges, SearchEngine},
		{KnownScraperRanges, KnownScraper},
	}
	for _, tt := range tests {
		for _, p := range tt.ranges {
			if cat, ok := db.Lookup(p.Nth(1)); !ok || cat != tt.want {
				t.Errorf("feed lookup inside %s = %v/%v, want %v", p, cat, ok, tt.want)
			}
		}
	}
	// The deliberately unlisted datacenter range has no feed entry.
	for _, p := range DatacenterUnlistedRanges {
		if _, ok := db.Lookup(p.Nth(1)); ok {
			t.Errorf("unlisted range %s unexpectedly present in feed", p)
		}
	}
}

func TestSuspicionOrdering(t *testing.T) {
	// The suspicion prior must rank confirmed-bad above grey above clean.
	if !(KnownScraper.Suspicion() > TorExit.Suspicion() &&
		TorExit.Suspicion() > ProxyVPN.Suspicion() &&
		ProxyVPN.Suspicion() > Datacenter.Suspicion() &&
		Datacenter.Suspicion() > Corporate.Suspicion() &&
		Corporate.Suspicion() > Residential.Suspicion()) {
		t.Error("suspicion ordering violated")
	}
	for _, c := range []Category{Unknown, Residential, Mobile, Corporate,
		Datacenter, ProxyVPN, TorExit, SearchEngine, KnownScraper} {
		s := c.Suspicion()
		if s < 0 || s > 1 {
			t.Errorf("%v suspicion %g out of [0,1]", c, s)
		}
		if c.String() == "" {
			t.Errorf("%v has empty name", int(c))
		}
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	db := BuildFeed()
	ips := make([]uint32, 1024)
	for i := range ips {
		ips[i] = uint32(i * 2654435761)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Lookup(ips[i%len(ips)])
	}
}
