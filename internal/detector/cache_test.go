package detector

import (
	"fmt"
	"testing"
	"time"

	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
)

// smallClients is a clients table with the given bounds, so a test can
// fill it.
func smallClients(maxAddrs, maxAgents int) clients {
	t := newClients()
	t.maxAddrs, t.maxAgents = maxAddrs, maxAgents
	return t
}

// resolveAt0 is clients.resolve at the zero instant, its facts dropped.
func (t *clients) resolveAt0(rep *iprep.DB, addr, agent string) {
	var derived uaFacts
	t.resolve(rep, addr, agent, 0, &derived)
}

// checkRecord fails unless addr's record is the address's derived facts
// pointing at agent's.
func checkRecord(t *testing.T, tab *clients, rep *iprep.DB, addr, agent string) {
	t.Helper()
	ip, _ := iprep.IPv4(addr)
	c, known := tab.byAddr[ip]
	if !known {
		t.Fatalf("%s: no record", addr)
	}
	if want, _ := rep.Lookup(ip); iprep.Category(c.cat) != want {
		t.Fatalf("%s: record %+v, category %v", addr, c, want)
	}
	if got, want := tab.agents[c.agent], deriveUA(agent); got != want {
		t.Fatalf("%s: agent facts %+v, derived %+v", agent, got, want)
	}
}

// A full table starts over and admits; neither table grows past its bound
// nor closes, and since records index the agent table, a start-over of
// either clears both.
func TestAdmitStartsOverWhenFull(t *testing.T) {
	rep := iprep.BuildFeed()
	t.Run("agents", func(t *testing.T) {
		tab := smallClients(100, 3)
		for i := 0; i < 3; i++ {
			tab.resolveAt0(rep, "10.0.0.1", fmt.Sprint("agent-", i))
		}
		tab.resolveAt0(rep, "10.0.0.2", "agent-0") // known agent: no start-over
		if len(tab.agents) != 3 || len(tab.byAddr) != 2 {
			t.Fatalf("before the bound: %d agents, %d addresses, want 3 and 2", len(tab.agents), len(tab.byAddr))
		}
		tab.resolveAt0(rep, "10.0.0.3", "agent-3")
		if len(tab.agents) != 1 || len(tab.byAgent) != 1 || len(tab.byAddr) != 1 {
			t.Fatalf("a fourth agent left %d agents (%d indexed) and %d addresses, want 1, 1, 1",
				len(tab.agents), len(tab.byAgent), len(tab.byAddr))
		}
		checkRecord(t, &tab, rep, "10.0.0.3", "agent-3")
		tab.resolveAt0(rep, "10.0.0.1", "agent-0") // admitted again
		checkRecord(t, &tab, rep, "10.0.0.1", "agent-0")
	})
	t.Run("addresses", func(t *testing.T) {
		tab := smallClients(4, 100)
		for i := 0; i < 4; i++ {
			tab.resolveAt0(rep, fmt.Sprint("10.0.0.", i), "agent-0")
		}
		tab.resolveAt0(rep, "10.0.0.0", "agent-1") // known address: no start-over
		if len(tab.byAddr) != 4 || len(tab.agents) != 2 {
			t.Fatalf("before the bound: %d addresses, %d agents, want 4 and 2", len(tab.byAddr), len(tab.agents))
		}
		tab.resolveAt0(rep, "10.0.0.4", "agent-0")
		if len(tab.byAddr) != 1 || len(tab.agents) != 1 || len(tab.byAgent) != 1 {
			t.Fatalf("a fifth address left %d addresses and %d agents (%d indexed), want 1, 1, 1",
				len(tab.byAddr), len(tab.agents), len(tab.byAgent))
		}
		checkRecord(t, &tab, rep, "10.0.0.4", "agent-0")
		tab.resolveAt0(rep, "10.0.0.0", "agent-1")
		checkRecord(t, &tab, rep, "10.0.0.0", "agent-1")
	})
	t.Run("reset", func(t *testing.T) {
		tab := smallClients(4, 4)
		tab.resolveAt0(rep, "10.0.0.1", "agent-0")
		agents := tab.agents[:1]
		tab.reset()
		if len(tab.byAddr)+len(tab.agents)+len(tab.byAgent) != 0 {
			t.Fatalf("reset left %d addresses, %d agents, %d indexed", len(tab.byAddr), len(tab.agents), len(tab.byAgent))
		}
		if agents[0] != (uaFacts{}) {
			t.Errorf("reset left a cleared agent slot holding %q", agents[0].info.Raw)
		}
	})
}

// After a flood of one-shot User-Agents and addresses has filled the agent
// table, a population that returns is recorded again — it does not pay a
// User-Agent parse per line for the life of the process — and enriches
// without allocating.
func TestEnrichersAdmitAgainAfterFlood(t *testing.T) {
	entry := logfmt.Entry{
		Identity: "-", AuthUser: "-", Time: time.Date(2018, 3, 11, 6, 25, 14, 0, time.UTC),
		Method: "GET", Path: "/product/17", Proto: "HTTP/1.1", Status: 200, Bytes: 512, Referer: "-",
	}
	population := make([]logfmt.Entry, 1000)
	for i := range population {
		population[i] = entry
		population[i].RemoteAddr = fmt.Sprintf("10.9.%d.%d", i/250, i%250)
		population[i].UserAgent = fmt.Sprintf("Mozilla/5.0 (returning %d)", i%40)
	}
	feed := iprep.BuildFeed()
	enr := NewEnricher(feed)
	tab := &enr.t
	var req Request
	for i := 0; i < maxCachedUAs+4464; i++ {
		e := entry
		e.RemoteAddr = fmt.Sprintf("100.%d.%d.%d", i>>16, i>>8&255, i&255)
		e.UserAgent = fmt.Sprintf("one-shot/%d", i)
		enr.EnrichInto(&req, e)
	}
	if len(tab.agents) > maxCachedUAs || len(tab.byAgent) != len(tab.agents) {
		t.Fatalf("agent table holds %d agents (%d indexed), bound %d", len(tab.agents), len(tab.byAgent), maxCachedUAs)
	}
	if len(tab.byAddr) > len(tab.agents) {
		t.Fatalf("%d address records outlived the start-over that left %d agents", len(tab.byAddr), len(tab.agents))
	}
	enrichAll := func() {
		for i := range population {
			enr.EnrichInto(&req, population[i])
		}
	}
	enrichAll() // recorded here
	for i := range population {
		checkRecord(t, tab, feed, population[i].RemoteAddr, population[i].UserAgent)
	}
	if allocs := testing.AllocsPerRun(5, enrichAll); allocs != 0 {
		t.Errorf("returning population allocates %.0f per %d requests, want 0", allocs, len(population))
	}
}

// The agent table is read only when an address's agent changes: with its
// index emptied behind the enricher's back, a client repeating its agent
// still enriches from its record — any lookup would miss and re-admit the
// agent — while one switching agent goes through the index.
func TestRepeatedAgentSkipsTheAgentTable(t *testing.T) {
	enr := NewEnricher(nil)
	tab := &enr.t
	var req Request
	first, second := entry("10.0.0.1", "Mozilla/5.0 (first)"), entry("10.0.0.1", "Mozilla/5.0 (second)")
	enr.EnrichInto(&req, first)
	clear(tab.byAgent)
	for i := 0; i < 3; i++ {
		enr.EnrichInto(&req, first)
	}
	if len(tab.agents) != 1 || len(tab.byAgent) != 0 {
		t.Errorf("a repeated agent reached the agent index (%d agents, %d indexed)", len(tab.agents), len(tab.byAgent))
	}
	if req.UA.Raw != first.UserAgent || req.UAHash != deriveUA(first.UserAgent).hash {
		t.Errorf("repeated agent enriched as %q", req.UA.Raw)
	}
	enr.EnrichInto(&req, second)
	if len(tab.agents) != 2 || len(tab.byAgent) != 1 || req.UA.Raw != second.UserAgent {
		t.Errorf("a changed agent did not go through the index (%d agents, %d indexed, %q)",
			len(tab.agents), len(tab.byAgent), req.UA.Raw)
	}
}

// A sweep drops exactly the records untouched since its cutoff; one that
// leaves fewer than half the table's peak rebuilds it, keeping only the
// survivors' agents, re-indexed, and the survivors enrich as before. An
// address that is not IPv4 leaves no record, and its agent no slot.
func TestEvictionDropsIdleAddressesAndRebuilds(t *testing.T) {
	feed := iprep.BuildFeed()
	enr := NewEnricher(feed)
	tab := &enr.t
	t0 := time.Date(2018, 3, 11, 0, 0, 0, 0, time.UTC)
	var req Request
	at := func(addr, agent string, d time.Duration) {
		e := entry(addr, agent)
		e.Time = t0.Add(d)
		enr.EnrichInto(&req, e)
	}
	for i := 0; i < 10; i++ {
		at(fmt.Sprintf("10.0.0.%d", i), fmt.Sprintf("agent-%d", i), time.Duration(i)*time.Minute)
	}
	at("2001:db8::1", "v6-agent", 0)
	at("not-an-address", "garbage-agent", 0)
	if len(tab.byAddr) != 10 || len(tab.agents) != 10 {
		t.Fatalf("10 IPv4 addresses and two others left %d records and %d agents, want 10 and 10", len(tab.byAddr), len(tab.agents))
	}
	if n := enr.EvictBefore(t0.Add(3 * time.Minute)); n != 3 || len(tab.byAddr) != 7 || len(tab.agents) != 10 {
		t.Fatalf("a sweep to minute 3 dropped %d, left %d records and %d agents; want 3, 7, 10 (no rebuild above half the peak)",
			n, len(tab.byAddr), len(tab.agents))
	}
	if n := enr.EvictBefore(t0.Add(6 * time.Minute)); n != 3 || len(tab.byAddr) != 4 || len(tab.agents) != 4 || tab.peak != 4 {
		t.Fatalf("a sweep to minute 6 dropped %d, left %d records, %d agents, peak %d; want 3, 4, 4, 4 (rebuilt)",
			n, len(tab.byAddr), len(tab.agents), tab.peak)
	}
	checkTables(t, tab)
	for i := 6; i < 10; i++ {
		checkRecord(t, tab, feed, fmt.Sprintf("10.0.0.%d", i), fmt.Sprintf("agent-%d", i))
	}
	if n := enr.EvictBefore(t0.Add(time.Hour)); n != 4 || len(tab.byAddr)+len(tab.agents)+len(tab.byAgent) != 0 {
		t.Fatalf("a sweep past every address dropped %d, left %d records, %d agents, %d indexed", n, len(tab.byAddr), len(tab.agents), len(tab.byAgent))
	}
}
