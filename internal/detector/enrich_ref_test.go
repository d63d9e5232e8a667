package detector

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/sessions"
	"divscrape/internal/sitemodel"
	"divscrape/internal/uaparse"
)

// refRequest is what enriching entry as request seq must give: every
// field derived afresh from its definition, no table in between.
func refRequest(rep *iprep.DB, seq uint64, entry logfmt.Entry) Request {
	req := Request{
		Seq:              seq,
		Entry:            entry,
		UA:               uaparse.Parse(entry.UserAgent),
		Target:           sitemodel.ClassifyPath(entry.Path),
		RobotsDisallowed: sitemodel.DisallowedByRobots(entry.PathOnly()),
	}
	if ip, err := iprep.ParseIPv4(entry.RemoteAddr); err == nil {
		req.IP = ip
		if rep != nil {
			req.IPCat, _ = rep.Lookup(ip)
		}
	}
	req.UAHash = sessions.KeyFor(req.IP, entry.UserAgent).UAHash
	return req
}

// refPhase is a stretch of a reference stream; reset asks for an
// enricher Reset before it.
type refPhase struct {
	name  string
	reset bool
	lines []logfmt.Entry
}

// refPhases is a random (address, agent) stream: returning clients that
// mostly keep their agent and now and then switch, one client rotating its
// agent on every line, addresses in reputation ranges and unparsable ones;
// then every client rotating among the known agents on every line, with
// one-shot agents and new addresses (each on four lines in a row) mixed
// in; then a flood of one-shot agents from a handful of addresses, past
// maxCachedUAs, which forces a start-over mid-phase; then, after a Reset,
// the returning and the rotating clients again.
func refPhases(seed uint64) []refPhase {
	rng := rand.New(rand.NewPCG(seed, 25))
	agents := []string{
		"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36",
		"Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0",
		"Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) HeadlessChrome/64.0.3282.186 Safari/537.36",
		"Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)",
		"python-requests/2.18.4", "curl/7.58.0", "Scrapy/1.5.0 (+https://scrapy.org)", "-", "",
	}
	addrs := make([]string, 64)
	for i := range addrs {
		switch i % 8 {
		case 0:
			addrs[i] = iprep.FormatIPv4(iprep.DatacenterRanges[0].Nth(uint64(i)))
		case 1:
			addrs[i] = iprep.FormatIPv4(iprep.KnownScraperRanges[0].Nth(uint64(i)))
		case 2:
			addrs[i] = fmt.Sprintf("not-an-address-%d", i)
		default:
			addrs[i] = fmt.Sprintf("10.7.%d.%d", i/8, i%8)
		}
	}
	returning := func(n int) []logfmt.Entry {
		out := make([]logfmt.Entry, n)
		for i := range out {
			c := rng.IntN(len(addrs))
			out[i] = entry(addrs[c], agents[c%len(agents)])
			switch {
			case c == 3:
				out[i].UserAgent = fmt.Sprintf("rotating/%d", i%7)
			case rng.IntN(8) == 0:
				out[i].UserAgent = agents[rng.IntN(len(agents))]
			}
			out[i].Path = fmt.Sprintf("/product/%d", rng.IntN(100))
		}
		return out
	}
	rounds := 0
	rotating := func(n int) []logfmt.Entry {
		rounds++
		out := make([]logfmt.Entry, n)
		for i := range out {
			// Line i and i+16 come from the same client, one agent apart.
			out[i] = entry(addrs[i%16], agents[(i/16+i%16)%len(agents)])
			switch {
			case i%40 < 4:
				out[i].RemoteAddr = fmt.Sprintf("10.8.%d.%d", rounds, i/40%250)
			case rng.IntN(10) == 0:
				out[i].UserAgent = fmt.Sprintf("one-shot-rotating/%d/%d", rounds, i)
			}
		}
		return out
	}
	flood := make([]logfmt.Entry, maxCachedUAs+500)
	for i := range flood {
		flood[i] = entry(addrs[8+i%5], fmt.Sprintf("one-shot/%d", i))
	}
	return []refPhase{
		{"returning", false, returning(3000)},
		{"rotating", false, rotating(4000)},
		{"flood", false, flood},
		{"returning after Reset", true, returning(3000)},
		{"rotating after Reset", false, rotating(4000)},
		{"returning again", false, returning(3000)},
	}
}

// The enricher, whatever its tables hold, gives the Request refRequest
// derives afresh per line — field for field, through returning clients,
// agent changes and rotation, a start-over forced by a one-shot-agent
// flood, and a Reset mid-stream.
func TestEnrichersMatchFreshDerivation(t *testing.T) {
	rep := iprep.BuildFeed()
	enr := NewEnricher(rep)
	var got Request
	seq := uint64(0)
	for _, phase := range refPhases(1) {
		if phase.reset {
			enr.Reset()
			seq = 0
		}
		for i, e := range phase.lines {
			enr.EnrichInto(&got, e)
			if want := refRequest(rep, seq, e); got != want {
				t.Fatalf("%s line %d (%s, %q):\n got  %+v\n want %+v", phase.name, i, e.RemoteAddr, e.UserAgent, got, want)
			}
			seq++
		}
	}
}

// FuzzEnricherEviction holds the enricher to refRequest on random streams
// of (address, agent, event time) with sweeps at random cutoffs, through
// tables small enough to start over: eviction, the rebuild it triggers and
// a start-over change what the tables hold, never a Request. Addresses
// include reputation ranges, IPv6 and garbage; after every sweep no record
// older than its cutoff survives, and the tables stay consistent.
func FuzzEnricherEviction(f *testing.F) {
	f.Add([]byte{3, 2, 0x10, 0x21, 0x32, 0x43, 0xf0, 0x54, 0x65, 0xff, 0x76})
	f.Add([]byte{1, 1, 0, 1, 2, 3, 4, 5, 6, 7, 0xf8, 0xf9, 0xfa})
	f.Add([]byte("a stream of addresses, agents and sweeps"))
	// Six addresses, one kept busy past a sweep that drops the rest: a rebuild.
	f.Add([]byte{5, 3, 66, 67, 68, 69, 70, 71, 198, 198, 198, 198, 0xff, 67, 0xf0})
	rep := iprep.BuildFeed()
	addrs := []string{
		"10.0.0.1", "10.0.0.2", "10.0.0.3", "192.168.1.9",
		iprep.FormatIPv4(iprep.DatacenterRanges[0].Nth(5)), iprep.FormatIPv4(iprep.KnownScraperRanges[0].Nth(9)),
		"2001:db8::1", "not-an-address", "", "+1.-0.00.9", "1.2.3.999",
	}
	agents := []string{"curl/7.58.0", "python-requests/2.18.4", "Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0", "", "-"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		enr := NewEnricher(rep)
		enr.t.maxAddrs, enr.t.maxAgents = 1+int(data[0]%6), 1+int(data[1]%4)
		now := time.Date(2018, 3, 11, 0, 0, 0, 0, time.UTC)
		var got Request
		seq := uint64(0)
		for i, b := range data[2:] {
			if b >= 0xf0 {
				cut := now.Add(-time.Duration(b&0x0f) * 30 * time.Second)
				enr.EvictBefore(cut)
				checkTables(t, &enr.t)
				for ip, c := range enr.t.byAddr {
					if c.last < stamp(cut) {
						t.Fatalf("op %d: %s survived a sweep to %v (last seen %d)", i, iprep.FormatIPv4(ip), cut, c.last)
					}
				}
				continue
			}
			now = now.Add(time.Duration(b>>6) * 40 * time.Second)
			e := entry(addrs[int(b)%len(addrs)], agents[int(b>>3)%len(agents)])
			if b%7 == 0 {
				e.UserAgent = fmt.Sprintf("one-shot/%d", i)
			}
			e.Time = now
			enr.EnrichInto(&got, e)
			if want := refRequest(rep, seq, e); got != want {
				t.Fatalf("op %d (%s, %q):\n got  %+v\n want %+v", i, e.RemoteAddr, e.UserAgent, got, want)
			}
			checkTables(t, &enr.t)
			seq++
		}
	})
}

// checkTables fails unless the tables are within their bounds and every
// record and index entry points at a live agent slot of its own string.
func checkTables(t *testing.T, tab *clients) {
	t.Helper()
	if len(tab.byAddr) > tab.maxAddrs || len(tab.agents) > tab.maxAgents || len(tab.byAgent) != len(tab.agents) {
		t.Fatalf("%d addresses, %d agents (%d indexed), bounds %d and %d",
			len(tab.byAddr), len(tab.agents), len(tab.byAgent), tab.maxAddrs, tab.maxAgents)
	}
	for agent, i := range tab.byAgent {
		if int(i) >= len(tab.agents) || tab.agents[i].info.Raw != agent {
			t.Fatalf("agent %q indexed at %d of %d", agent, i, len(tab.agents))
		}
	}
	for ip, c := range tab.byAddr {
		if int(c.agent) >= len(tab.agents) {
			t.Fatalf("%s points at agent %d of %d", iprep.FormatIPv4(ip), c.agent, len(tab.agents))
		}
	}
}
