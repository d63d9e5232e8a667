package detector

import (
	"math"
	"time"

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
// What it caches is a clients table (below): one 12-byte record per IPv4
// address, keyed by the address's number — its reputation category, the
// agent it sent last and the minute it was last seen — and a table of the
// agents' facts by value. A line whose client repeats its last agent
// (98.8 % of the paper mix's lines, 93.4 % of the wide mix's) costs the
// parse of its address, one hash of the number and a compare of the agent;
// the agent table is read only for any other agent. The table holds no
// address string, and an address that is not IPv4 is derived on its line
// and leaves nothing behind.
//
// The table is bounded two ways. A host that sweeps (EvictBefore, which
// shard.Shard.Sweep calls on the window its detectors are swept on) keeps
// only the addresses seen inside the window, and rebuilds the table when
// the sweep leaves it well below its peak, so the memory is returned; an
// address costs ≈ 29 B of map at the 20 000-address flood memory_test.go
// gates. Without sweeps the table starts over when full (maxCachedIPs
// addresses, maxCachedUAs agents).
//
// Enricher is not safe for concurrent use; each shard owns one.
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

// client is what enrichment keeps per address: 12 bytes, no pointer, so
// a map slot with its key is 16.
type client struct {
	// agent indexes clients.agents: the agent the address sent last.
	agent uint32
	// last is the stamp of the newest line that touched the record.
	last uint32
	cat  uint8
}

// stamp is t as a record keeps it: the 64-second tick since 1970, clamped
// at zero. A returning client's record is rewritten once a tick, not once
// a line, and the floor can only keep a record past its cutoff — by under
// a tick, beside windows of hours — never drop one early.
func stamp(t time.Time) uint32 {
	return uint32(min(max(t.Unix()>>6, 0), math.MaxUint32))
}

// Table bounds: the hard bound, which a host that never sweeps relies on.
const (
	maxCachedUAs = 1 << 16
	maxCachedIPs = 1 << 20
)

// firstAddrs sizes a new address table: ≈ 18 KB, what a shard of the
// paper mix grows to anyway (≈ 600 of its 1 176 clients at two shards),
// so a fresh two-shard replay does not pay a tenth more allocations per
// request for the table's first growth steps. Past it the table grows
// with the clients the shard sees; a rebuild sizes it to the survivors.
const firstAddrs = 512

// clients is the enricher's memory: a record per IPv4 address and the
// facts of every agent those records point at, stored by value (info.Raw
// is the agent's key) and found by string through byAgent when a line's
// agent is not its record's or its address is new.
//
// When either table is full both start over — records index the agent
// table, so neither can be cleared alone. A table that stopped admitting
// instead would leave every client arriving after one flood uncached — a
// full User-Agent parse per line — for good. Every line from an IPv4
// address stamps its record (a write once a tick) and writes the agent it
// sent when that changed; a client rotating among agents the tables hold costs a
// hash of its address and one of its agent.
type clients struct {
	byAddr  map[uint32]client
	agents  []uaFacts
	byAgent map[string]uint32
	// peak is the most records byAddr has held since it was built: Go maps
	// never shrink, so a sweep that leaves well under it rebuilds.
	peak int
	// maxAddrs and maxAgents are maxCachedIPs and maxCachedUAs, except in
	// the tests, which start small tables over.
	maxAddrs, maxAgents int
}

func newClients() clients {
	return clients{
		byAddr:    make(map[uint32]client, firstAddrs),
		byAgent:   map[string]uint32{},
		maxAddrs:  maxCachedIPs,
		maxAgents: maxCachedUAs,
	}
}

// resolve returns the facts of a line from addr sending agent at now,
// installing what the tables lack. ua points into the agent table, or at
// *derived for a line that installs nothing of its agent.
func (t *clients) resolve(rep *iprep.DB, addr, agent string, now uint32, derived *uaFacts) (ip uint32, cat iprep.Category, ua *uaFacts) {
	ip, ok := iprep.IPv4(addr)
	if !ok {
		if i, seen := t.byAgent[agent]; seen {
			return 0, iprep.Unknown, &t.agents[i]
		}
		*derived = deriveUA(agent)
		return 0, iprep.Unknown, derived
	}
	c, known := t.byAddr[ip]
	if known && t.agents[c.agent].info.Raw == agent {
		if c.last != now {
			c.last = now
			t.byAddr[ip] = c
		}
		return ip, iprep.Category(c.cat), &t.agents[c.agent]
	}
	i, seen := t.byAgent[agent]
	if !seen && len(t.agents) >= t.maxAgents || !known && len(t.byAddr) >= t.maxAddrs {
		t.reset()
		known, seen = false, false
	}
	if !seen {
		i = uint32(len(t.agents))
		t.agents = append(t.agents, deriveUA(agent))
		t.byAgent[agent] = i
	}
	if !known && rep != nil {
		cat, _ := rep.Lookup(ip)
		c.cat = uint8(cat)
	}
	c.agent, c.last = i, now
	t.byAddr[ip] = c
	t.peak = max(t.peak, len(t.byAddr))
	return ip, iprep.Category(c.cat), &t.agents[i]
}

// evictBefore drops the records no line has touched since cut and
// returns how many. When fewer than half the peak survive, both tables
// are rebuilt holding only the survivors and their agents.
func (t *clients) evictBefore(cut uint32) int {
	n := 0
	for ip, c := range t.byAddr {
		if c.last < cut {
			delete(t.byAddr, ip)
			n++
		}
	}
	if len(t.byAddr) < t.peak/2 {
		t.rebuild()
	}
	return n
}

// rebuild copies the live records into fresh tables, re-indexing the
// agents they point at and dropping the rest.
func (t *clients) rebuild() {
	fresh := clients{
		byAddr:    make(map[uint32]client, len(t.byAddr)),
		byAgent:   map[string]uint32{},
		peak:      len(t.byAddr),
		maxAddrs:  t.maxAddrs,
		maxAgents: t.maxAgents,
	}
	for ip, c := range t.byAddr {
		ua := &t.agents[c.agent]
		i, seen := fresh.byAgent[ua.info.Raw]
		if !seen {
			i = uint32(len(fresh.agents))
			fresh.agents = append(fresh.agents, *ua)
			fresh.byAgent[ua.info.Raw] = i
		}
		c.agent = i
		fresh.byAddr[ip] = c
	}
	*t = fresh
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
	req.Seq, req.Entry = e.seq, entry
	e.Fill(req)
	e.seq++
}

// Fill overwrites every field of *req below Entry with what enrichment
// derives from req.Entry; Seq and Entry are the caller's. It is how a host
// that numbers the stream itself — the pipeline, the guard — enriches on
// the shard that judges the request, and it does not advance Seq.
func (e *Enricher) Fill(req *Request) {
	var derived uaFacts
	entry := &req.Entry
	ip, cat, ua := e.t.resolve(e.rep, entry.RemoteAddr, entry.UserAgent, stamp(entry.Time), &derived)
	req.UA = ua.info
	req.UAHash = ua.hash
	req.IP = ip
	req.IPCat = cat
	req.Target = sitemodel.ClassifyPath(entry.Path)
	req.RobotsDisallowed = sitemodel.DisallowedByRobots(entry.PathOnly())
}

// EvictBefore drops the records of addresses no line has touched since
// cutoff, freeing the table's memory once most of it is gone, and returns
// how many it dropped. Enrichment is memoisation, so no Request changes.
func (e *Enricher) EvictBefore(cutoff time.Time) int {
	return e.t.evictBefore(stamp(cutoff))
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
