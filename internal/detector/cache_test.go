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

// checkRecord fails unless addr's record is the address's derived facts
// pointing at agent's.
func checkRecord(t *testing.T, tab *clients, rep *iprep.DB, addr, agent string) {
	t.Helper()
	c, known := tab.byAddr[addr]
	if !known {
		t.Fatalf("%s: no record", addr)
	}
	want := deriveIP(rep, addr)
	if c.ip != want.ip || c.cat != want.cat {
		t.Fatalf("%s: record %+v, derived %+v", addr, c, want)
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
			tab.resolve(rep, "10.0.0.1", fmt.Sprint("agent-", i))
		}
		tab.resolve(rep, "10.0.0.2", "agent-0") // known agent: no start-over
		if len(tab.agents) != 3 || len(tab.byAddr) != 2 {
			t.Fatalf("before the bound: %d agents, %d addresses, want 3 and 2", len(tab.agents), len(tab.byAddr))
		}
		tab.resolve(rep, "10.0.0.3", "agent-3")
		if len(tab.agents) != 1 || len(tab.byAgent) != 1 || len(tab.byAddr) != 1 {
			t.Fatalf("a fourth agent left %d agents (%d indexed) and %d addresses, want 1, 1, 1",
				len(tab.agents), len(tab.byAgent), len(tab.byAddr))
		}
		checkRecord(t, &tab, rep, "10.0.0.3", "agent-3")
		tab.resolve(rep, "10.0.0.1", "agent-0") // admitted again
		checkRecord(t, &tab, rep, "10.0.0.1", "agent-0")
	})
	t.Run("addresses", func(t *testing.T) {
		tab := smallClients(4, 100)
		for i := 0; i < 4; i++ {
			tab.resolve(rep, fmt.Sprint("10.0.0.", i), "agent-0")
		}
		tab.resolve(rep, "10.0.0.0", "agent-1") // known address: no start-over
		if len(tab.byAddr) != 4 || len(tab.agents) != 2 {
			t.Fatalf("before the bound: %d addresses, %d agents, want 4 and 2", len(tab.byAddr), len(tab.agents))
		}
		tab.resolve(rep, "10.0.0.4", "agent-0")
		if len(tab.byAddr) != 1 || len(tab.agents) != 1 || len(tab.byAgent) != 1 {
			t.Fatalf("a fifth address left %d addresses and %d agents (%d indexed), want 1, 1, 1",
				len(tab.byAddr), len(tab.agents), len(tab.byAgent))
		}
		checkRecord(t, &tab, rep, "10.0.0.4", "agent-0")
		tab.resolve(rep, "10.0.0.0", "agent-1")
		checkRecord(t, &tab, rep, "10.0.0.0", "agent-1")
	})
	t.Run("reset", func(t *testing.T) {
		tab := smallClients(4, 4)
		tab.resolve(rep, "10.0.0.1", "agent-0")
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
// without allocating, in both enrichers.
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
	plain, shared := NewEnricher(feed), NewSharedEnricher(feed)
	for _, tt := range []struct {
		name       string
		enrichInto func(*Request, logfmt.Entry)
		tab        *clients
	}{
		{"Enricher", plain.EnrichInto, &plain.t},
		{"SharedEnricher", shared.EnrichInto, &shared.t},
	} {
		var req Request
		for i := 0; i < maxCachedUAs+4464; i++ {
			e := entry
			e.RemoteAddr = fmt.Sprintf("100.%d.%d.%d", i>>16, i>>8&255, i&255)
			e.UserAgent = fmt.Sprintf("one-shot/%d", i)
			tt.enrichInto(&req, e)
		}
		if len(tt.tab.agents) > maxCachedUAs || len(tt.tab.byAgent) != len(tt.tab.agents) {
			t.Fatalf("%s: agent table holds %d agents (%d indexed), bound %d", tt.name, len(tt.tab.agents), len(tt.tab.byAgent), maxCachedUAs)
		}
		if len(tt.tab.byAddr) > len(tt.tab.agents) {
			t.Fatalf("%s: %d address records outlived the start-over that left %d agents", tt.name, len(tt.tab.byAddr), len(tt.tab.agents))
		}
		enrichAll := func() {
			for i := range population {
				tt.enrichInto(&req, population[i])
			}
		}
		enrichAll() // recorded here
		for i := range population {
			checkRecord(t, tt.tab, feed, population[i].RemoteAddr, population[i].UserAgent)
		}
		if allocs := testing.AllocsPerRun(5, enrichAll); allocs != 0 {
			t.Errorf("%s: returning population allocates %.0f per %d requests, want 0", tt.name, allocs, len(population))
		}
	}
}

// The agent table is read only when an address's agent changes: with its
// index emptied behind the enricher's back, a client repeating its agent
// still enriches from its record — any lookup would miss and re-admit the
// agent — while one switching agent goes through the index.
func TestRepeatedAgentSkipsTheAgentTable(t *testing.T) {
	plain, shared := NewEnricher(nil), NewSharedEnricher(nil)
	for _, tt := range []struct {
		name       string
		enrichInto func(*Request, logfmt.Entry)
		tab        *clients
	}{
		{"Enricher", plain.EnrichInto, &plain.t},
		{"SharedEnricher", shared.EnrichInto, &shared.t},
	} {
		var req Request
		first, second := entry("10.0.0.1", "Mozilla/5.0 (first)"), entry("10.0.0.1", "Mozilla/5.0 (second)")
		tt.enrichInto(&req, first)
		clear(tt.tab.byAgent)
		for i := 0; i < 3; i++ {
			tt.enrichInto(&req, first)
		}
		if len(tt.tab.agents) != 1 || len(tt.tab.byAgent) != 0 {
			t.Errorf("%s: a repeated agent reached the agent index (%d agents, %d indexed)", tt.name, len(tt.tab.agents), len(tt.tab.byAgent))
		}
		if req.UA.Raw != first.UserAgent || req.UAHash != deriveUA(first.UserAgent).hash {
			t.Errorf("%s: repeated agent enriched as %q", tt.name, req.UA.Raw)
		}
		tt.enrichInto(&req, second)
		if len(tt.tab.agents) != 2 || len(tt.tab.byAgent) != 1 || req.UA.Raw != second.UserAgent {
			t.Errorf("%s: a changed agent did not go through the index (%d agents, %d indexed, %q)",
				tt.name, len(tt.tab.agents), len(tt.tab.byAgent), req.UA.Raw)
		}
	}
}
