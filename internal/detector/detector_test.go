package detector

import (
	"testing"
	"time"

	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/uaparse"
)

func TestArchetypeStringRoundTrip(t *testing.T) {
	for _, a := range Archetypes() {
		name := a.String()
		if name == "" {
			t.Errorf("archetype %d has empty name", int(a))
		}
		back, ok := ParseArchetype(name)
		if !ok || back != a {
			t.Errorf("ParseArchetype(%q) = %v/%v", name, back, ok)
		}
	}
	if _, ok := ParseArchetype("nonsense"); ok {
		t.Error("parsed a nonsense archetype")
	}
	if Archetype(99).String() == "" {
		t.Error("unknown archetype renders empty")
	}
}

func TestMaliciousPartition(t *testing.T) {
	malicious := map[Archetype]bool{
		ArchetypeScraperNaive:      true,
		ArchetypeScraperAggressive: true,
		ArchetypeScraperHeadless:   true,
		ArchetypeScraperStealth:    true,
		ArchetypeScraperKnownInfra: true,
	}
	for _, a := range Archetypes() {
		if a.Malicious() != malicious[a] {
			t.Errorf("%s.Malicious() = %v", a, a.Malicious())
		}
	}
	l := Label{Archetype: ArchetypeScraperNaive}
	if !l.Malicious() {
		t.Error("label maliciousness should follow the archetype")
	}
}

func entry(ip, ua string) logfmt.Entry {
	return logfmt.Entry{
		RemoteAddr: ip, Identity: "-", AuthUser: "-",
		Time:   time.Date(2018, 3, 11, 0, 0, 0, 0, time.UTC),
		Method: "GET", Path: "/", Proto: "HTTP/1.1",
		Status: 200, Bytes: 10, Referer: "-", UserAgent: ua,
	}
}

func TestEnricherFillsEverything(t *testing.T) {
	e := NewEnricher(iprep.BuildFeed())
	dcIP := iprep.FormatIPv4(iprep.DatacenterRanges[0].Nth(7))
	req := e.Enrich(entry(dcIP, "curl/7.58.0"))
	if req.Seq != 0 {
		t.Errorf("first seq = %d", req.Seq)
	}
	if req.UA.Class != uaparse.ClassTool {
		t.Errorf("UA class = %v", req.UA.Class)
	}
	if req.IPCat != iprep.Datacenter {
		t.Errorf("IP category = %v", req.IPCat)
	}
	if req.IP == 0 {
		t.Error("IP not parsed")
	}
	req2 := e.Enrich(entry(dcIP, "curl/7.58.0"))
	if req2.Seq != 1 {
		t.Errorf("second seq = %d", req2.Seq)
	}
	if req3 := e.Enrich(entry(dcIP, "curl/7.58.0")); req3.Seq != 2 {
		t.Errorf("third seq = %d", req3.Seq)
	}
}

func TestEnricherCachesAreCoherent(t *testing.T) {
	e := NewEnricher(iprep.BuildFeed())
	// The same UA string parsed twice must classify identically (cache
	// hit path vs miss path).
	first := e.Enrich(entry("10.0.0.1", "python-requests/2.18.4"))
	second := e.Enrich(entry("10.0.0.1", "python-requests/2.18.4"))
	if first.UA != second.UA || first.IPCat != second.IPCat || first.IP != second.IP {
		t.Error("cached enrichment differs from fresh enrichment")
	}
}

func TestEnricherNilReputation(t *testing.T) {
	e := NewEnricher(nil)
	req := e.Enrich(entry("172.16.0.1", "curl/7.58.0"))
	if req.IPCat != iprep.Unknown {
		t.Errorf("nil feed should leave category Unknown, got %v", req.IPCat)
	}
	if req.IP == 0 {
		t.Error("IP should still parse without a feed")
	}
}

func TestEnricherInvalidAddress(t *testing.T) {
	e := NewEnricher(iprep.BuildFeed())
	req := e.Enrich(entry("not-an-ip", "curl/7.58.0"))
	if req.IP != 0 || req.IPCat != iprep.Unknown {
		t.Errorf("invalid address enriched to %d/%v", req.IP, req.IPCat)
	}
}

func TestEnricherReset(t *testing.T) {
	e := NewEnricher(iprep.BuildFeed())
	e.Enrich(entry("10.0.0.1", "x"))
	e.Reset()
	req := e.Enrich(entry("10.0.0.1", "x"))
	if req.Seq != 0 {
		t.Errorf("Reset did not clear the sequence: post-reset seq = %d", req.Seq)
	}
}

func BenchmarkEnrich(b *testing.B) {
	e := NewEnricher(iprep.BuildFeed())
	entries := []logfmt.Entry{
		entry("10.0.0.1", "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36"),
		entry("172.16.0.9", "python-requests/2.18.4"),
		entry("192.168.96.5", "curl/7.58.0"),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Enrich(entries[i%len(entries)])
	}
}
