package detector

import (
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/sessions"
	"divscrape/internal/sitemodel"
	"divscrape/internal/uaparse"
)

// Enricher turns raw log entries into Requests, caching the expensive
// parses: User-Agent strings repeat heavily (a handful of browser strings
// cover most human traffic) and reputation lookups repeat per client.
//
// What it caches is a clients table (below): one 16-byte record per
// address — its numeric form, its reputation category and the index of an
// agent it sent — and a table of the agents' facts by value. A line whose
// client sends the agent its record points at costs one hash of the
// address and a compare of the agent (95 % of the paper mix's lines, 90 %
// of the wide mix's); the agent table is read only for any other agent.
// An address costs ≈ 49 B of map at the 20 000-address flood
// memory_test.go gates; a full table (maxCachedIPs,
// 1 << 20 addresses, each keeping its 16-byte address string alive) holds
// ≈ 100 MB, which is what an address-rotating flood can make a -follow
// process keep until the table starts over.
//
// Enricher is not safe for concurrent use; the pipeline owns one.
type Enricher struct {
	rep *iprep.DB
	t   clients
	seq uint64
}

// uaFacts is everything enrichment derives from a User-Agent string. The
// agent table holds one per distinct string, so the parse and the
// session-key hash are paid once per agent, not once per request per
// detector.
type uaFacts struct {
	info uaparse.Info
	hash uint64
}

func deriveUA(ua string) uaFacts {
	return uaFacts{info: uaparse.Parse(ua), hash: sessions.KeyFor(0, ua).UAHash}
}

// client is what enrichment keeps per address: 16 bytes, no pointer.
type client struct {
	ip uint32
	// agent indexes clients.agents: the agent the address sent on the
	// last line that installed something for it.
	agent uint32
	cat   iprep.Category
}

// deriveIP resolves a client address; an unparsable one keeps the zero
// address and category.
func deriveIP(rep *iprep.DB, addr string) client {
	var c client
	if ip, err := iprep.ParseIPv4(addr); err == nil {
		c.ip = ip
		if rep != nil {
			c.cat, _ = rep.Lookup(ip)
		}
	}
	return c
}

// derive is the one place a Request is assembled. Both enrichers resolve
// the per-agent and per-address facts through clients.resolve and hand
// them here, so they cannot drift apart in what they fill; the path facts
// are computed here, once, for every detector. Every field of *req is
// overwritten.
func derive(req *Request, seq uint64, entry *logfmt.Entry, ua *uaFacts, c client) {
	req.Seq = seq
	req.Entry = *entry
	req.UA = ua.info
	req.UAHash = ua.hash
	req.IP = c.ip
	req.IPCat = c.cat
	req.Target = sitemodel.ClassifyPath(entry.Path)
	req.RobotsDisallowed = sitemodel.DisallowedByRobots(entry.PathOnly())
}

// Table bounds shared by both enrichers.
const (
	maxCachedUAs = 1 << 16
	maxCachedIPs = 1 << 20
)

// clients is both enrichers' memory: a record per address and the facts
// of every agent those records point at, stored by value (info.Raw is
// the agent's key) and found by string through byAgent when a line's
// agent is not its record's or its address is new.
//
// When either table is full both start over — records index the agent
// table, so neither can be cleared alone. The bound holds against
// adversarial churn, and a table that stopped admitting instead would
// leave every client arriving after one flood uncached — a full
// User-Agent parse per line — for good. Clearing keeps the maps' buckets
// and the agent slice's capacity, so nothing is allocated per agent once
// they have grown.
//
// A line resolves in three steps, the same in both enrichers: lookup
// reads the tables and changes nothing; deriveMissing derives what it did
// not find, outside the tables (and so outside the SharedEnricher's
// lock); install adds that. A line that finds both its address and its
// agent is answered without a write, so a client rotating among agents
// the tables hold costs a hash of its address and one of its agent, as
// two caches did, plus the compare. A record therefore learns its
// address's latest agent only on a line that installs something.
type clients struct {
	byAddr  map[string]client
	agents  []uaFacts
	byAgent map[string]uint32
	// maxAddrs and maxAgents are maxCachedIPs and maxCachedUAs, except in
	// the tests, which start small tables over.
	maxAddrs, maxAgents int
}

func newClients() clients {
	return clients{
		byAddr:    make(map[string]client, 4096),
		agents:    make([]uaFacts, 0, 1024),
		byAgent:   make(map[string]uint32, 1024),
		maxAddrs:  maxCachedIPs,
		maxAgents: maxCachedUAs,
	}
}

// found is what lookup found for a line: addr's record when known (the
// zero record otherwise), its agent field indexing the line's agent when
// seen.
type found struct {
	c           client
	known, seen bool
}

// lookup reads the tables for a line from addr sending agent. The agent
// table is read only when the record's own agent is not agent.
func (t *clients) lookup(addr, agent string) found {
	c, known := t.byAddr[addr]
	if known && t.agents[c.agent].info.Raw == agent {
		return found{c, true, true}
	}
	i, seen := t.byAgent[agent]
	c.agent = i
	return found{c, known, seen}
}

// derived holds the facts of what the lookup f did not find: the
// address's when it was not known, the agent's when it was not seen.
type derived struct {
	f  found
	ip client
	ua uaFacts
}

func deriveMissing(rep *iprep.DB, addr, agent string, f found) derived {
	d := derived{f: f}
	if !f.known {
		d.ip = deriveIP(rep, addr)
	}
	if !f.seen {
		d.ua = deriveUA(agent)
	}
	return d
}

// install adds what the lookup f did not find and returns addr's record,
// written back pointing at agent's facts. f must be read under the same
// hold of the tables; d may come from an earlier lookup (the
// SharedEnricher derives outside its lock), so what d's lookup found and a
// start-over has since dropped is derived here.
func (t *clients) install(rep *iprep.DB, addr, agent string, f found, d *derived) client {
	c, known, seen := f.c, f.known, f.seen
	if !seen && len(t.agents) >= t.maxAgents || !known && len(t.byAddr) >= t.maxAddrs {
		t.reset()
		known, seen = false, false
	}
	if !seen {
		ua := d.ua
		if d.f.seen {
			ua = deriveUA(agent)
		}
		c.agent = uint32(len(t.agents))
		t.agents = append(t.agents, ua)
		t.byAgent[agent] = c.agent
	}
	if !known {
		ip := d.ip
		if d.f.known {
			ip = deriveIP(rep, addr)
		}
		c.ip, c.cat = ip.ip, ip.cat
	}
	t.byAddr[addr] = c
	return c
}

// resolve is the three steps back to back: the Enricher's whole step.
func (t *clients) resolve(rep *iprep.DB, addr, agent string) client {
	f := t.lookup(addr, agent)
	if f.known && f.seen {
		return f.c
	}
	d := deriveMissing(rep, addr, agent, f)
	return t.install(rep, addr, agent, f, &d)
}

// reset empties both tables in place; the agent slots are zeroed so they
// keep no agent string alive.
func (t *clients) reset() {
	clear(t.byAddr)
	clear(t.byAgent)
	clear(t.agents)
	t.agents = t.agents[:0]
}

// NewEnricher returns an enricher resolving reputation against rep, which
// may be nil to disable reputation enrichment.
func NewEnricher(rep *iprep.DB) *Enricher {
	return &Enricher{rep: rep, t: newClients()}
}

// Enrich converts one entry, assigning the next sequence number.
func (e *Enricher) Enrich(entry logfmt.Entry) Request {
	var req Request
	e.EnrichInto(&req, entry)
	return req
}

// EnrichInto is Enrich with a caller-owned destination, so hot loops can
// reuse one Request (or a pooled one) instead of allocating per record.
// Every field of *req is overwritten.
func (e *Enricher) EnrichInto(req *Request, entry logfmt.Entry) {
	c := e.t.resolve(e.rep, entry.RemoteAddr, entry.UserAgent)
	derive(req, e.seq, &entry, &e.t.agents[c.agent], c)
	e.seq++
}

// Seq returns the number of entries enriched so far.
func (e *Enricher) Seq() uint64 { return e.seq }

// Reset clears the tables and the sequence counter. The tables are
// cleared in place — their buckets stay allocated, so replaying a dataset
// after a reset re-warms without re-growing them.
func (e *Enricher) Reset() {
	e.t.reset()
	e.seq = 0
}
