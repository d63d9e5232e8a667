package detector

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
)

// refRequest is what enriching entry as request seq must give: derive fed
// by facts derived afresh for this line, no table in between.
func refRequest(rep *iprep.DB, seq uint64, entry logfmt.Entry) Request {
	var req Request
	ua := deriveUA(entry.UserAgent)
	derive(&req, seq, &entry, &ua, deriveIP(rep, entry.RemoteAddr))
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
// one-shot agents and new addresses (each on four lines in a row, so
// concurrent callers install it together) mixed in; then a flood of
// one-shot agents from a handful of addresses, past maxCachedUAs, which
// forces a start-over mid-phase; then, after a Reset, the returning and
// the rotating clients again.
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

// Both enrichers, whatever their tables hold, give the Request derive
// gives from facts derived afresh per line — field for field, through
// returning clients, agent changes and rotation, a start-over forced by a
// one-shot-agent flood, and a Reset mid-stream.
func TestEnrichersMatchFreshDerivation(t *testing.T) {
	rep := iprep.BuildFeed()
	phases := refPhases(1)
	plain, shared := NewEnricher(rep), NewSharedEnricher(rep)
	for _, tt := range []struct {
		name       string
		enrichInto func(*Request, logfmt.Entry)
		reset      func()
	}{
		{"Enricher", plain.EnrichInto, plain.Reset},
		{"SharedEnricher", shared.EnrichInto, shared.Reset},
	} {
		var got Request
		seq := uint64(0)
		for _, phase := range phases {
			if phase.reset {
				tt.reset()
				seq = 0
			}
			for i, e := range phase.lines {
				tt.enrichInto(&got, e)
				if want := refRequest(rep, seq, e); got != want {
					t.Fatalf("%s: %s line %d (%s, %q):\n got  %+v\n want %+v", tt.name, phase.name, i, e.RemoteAddr, e.UserAgent, got, want)
				}
				seq++
			}
		}
	}
}

// The same stream split over four goroutines sharing one SharedEnricher
// (meaningful under -race): every Request is the fresh derivation but for
// its sequence number, and each phase's numbers are each handed out once.
// Line i goes to goroutine i mod 4, so in the rotating phases one client's
// successive agents are enriched at once by different goroutines, and a
// new address's four lines are installed by all four together.
func TestSharedEnricherMatchesFreshDerivationConcurrently(t *testing.T) {
	const workers = 4
	rep := iprep.BuildFeed()
	enr := NewSharedEnricher(rep)
	for _, phase := range refPhases(2) {
		if phase.reset {
			enr.Reset()
		}
		lines := phase.lines
		base := enr.seq.Load()
		seqs := make([][]uint64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var got Request
				for i := w; i < len(lines); i += workers {
					enr.EnrichInto(&got, lines[i])
					if want := refRequest(rep, got.Seq, lines[i]); got != want {
						t.Errorf("%s line %d (%s, %q):\n got  %+v\n want %+v", phase.name, i, lines[i].RemoteAddr, lines[i].UserAgent, got, want)
						return
					}
					seqs[w] = append(seqs[w], got.Seq)
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		seen := make([]bool, len(lines))
		for _, s := range seqs {
			for _, n := range s {
				if n < base || n-base >= uint64(len(lines)) || seen[n-base] {
					t.Fatalf("%s: sequence number %d out of [%d, %d) or handed out twice", phase.name, n, base, base+uint64(len(lines)))
				}
				seen[n-base] = true
			}
		}
	}
}
