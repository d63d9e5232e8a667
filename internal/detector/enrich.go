package detector

import (
	"math"
	"strings"
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
// The table is bounded by a horizon: the longest idle timeout of the
// detectors it serves (NewEnricher). Once that much stream time has passed
// without a line from an address, every detector has forgotten the client
// and the enricher forgets it too. The expiry runs from Fill on the
// enricher's own clock, the 64-second stamps of the lines it enriches, at
// most once per quarter horizon, so it holds in every host and mode,
// whether or not anything sweeps. EvictBefore expires records at a cutoff
// of the caller's on top (shard.Shard.Sweep calls it on a host's window,
// which may be shorter). A sweep that leaves fewer than half the peak of
// a table past its first size rebuilds it, so the memory is returned; an
// address costs ≈ 29 B of map at the 20 000-address flood memory_test.go
// gates. Without a horizon — no detectors, or one that reports no idle
// timeout — only EvictBefore expires records, and the table starts over
// when full (maxCachedIPs addresses, maxCachedUAs agents).
//
// The agent table owns its strings: each agent is copied into an arena of
// agents only, and Fill points the request's Entry.UserAgent at that copy,
// equal in content. Whatever a detector keeps of the agent pins the
// enricher's agents, not the parser's chunk of addresses it arrived in.
//
// Enricher is not safe for concurrent use; each shard owns one.
type Enricher struct {
	rep *iprep.DB
	t   clients
	seq uint64
	// horizon is how many stamps a record outlives its last line, every
	// how many pass between expiries; next is the stamp from which a line
	// expires the table, never reached without a horizon, and back the
	// stamp below which a line — more than a period before the last
	// expiry, as after a far-future line — re-anchors the expiry on itself.
	horizon, every uint32
	next, back     uint64
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

// stampTick is the span of one stamp.
const stampTick = 64 * time.Second

// Table bounds: the hard bound, which an enricher without a horizon relies
// on.
const (
	maxCachedUAs = 1 << 16
	maxCachedIPs = 1 << 20
)

// agentChunk is the size of a chunk of the agent arena. An agent longer
// than a quarter of it is copied on its own, so a chunk is never abandoned
// more than a quarter empty.
const agentChunk = 4096

// firstAddrs sizes a new address table: ≈ 4 KB, room for the clients of
// an hour, the sides' longest idle timeout, of the paper mix (at most 99
// of its 1 176), so a replay pays no growth steps for it. Past it the
// table grows with the clients the shard sees, and a rebuild sizes it to
// the survivors.
const firstAddrs = 128

// clients is the enricher's memory: a record per IPv4 address and the
// facts of every agent those records point at, stored by value (info.Raw
// is the agent's key, a copy carved from arena) and found by string
// through byAgent when a line's agent is not its record's or its address
// is new.
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
	// arena is the chunk agent copies are carved from: written front to
	// back and replaced, never rewritten, so every copy handed out stays
	// valid after a start-over or a rebuild.
	arena strings.Builder
	// peak is the most records byAddr has held since it was built: Go maps
	// never shrink, so a sweep that leaves well under it rebuilds.
	peak int
	// first is firstAddrs, maxAddrs and maxAgents are maxCachedIPs and
	// maxCachedUAs, except in the tests, which rebuild and start over
	// small tables.
	first, maxAddrs, maxAgents int
}

func newClients() clients {
	return clients{
		byAddr:    make(map[uint32]client, firstAddrs),
		byAgent:   map[string]uint32{},
		first:     firstAddrs,
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
		i = t.admit(deriveUA(t.own(agent)))
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

// admit appends ua to the agent table, indexed by its own copy of the
// agent, and returns its slot.
func (t *clients) admit(ua uaFacts) uint32 {
	i := uint32(len(t.agents))
	t.agents = append(t.agents, ua)
	t.byAgent[ua.info.Raw] = i
	return i
}

// own returns a copy of agent carved from the arena, which is replaced by
// a fresh chunk when agent does not fit.
func (t *clients) own(agent string) string {
	switch {
	case agent == "":
		return ""
	case len(agent) > agentChunk/4:
		return strings.Clone(agent)
	}
	a := &t.arena
	if a.Cap()-a.Len() < len(agent) {
		*a = strings.Builder{}
		a.Grow(agentChunk)
	}
	start := a.Len()
	a.WriteString(agent)
	return a.String()[start:]
}

// evictBefore drops the records no line has touched since cut and
// returns how many. When fewer than half the peak survive, both tables
// are rebuilt holding only the survivors and their agents — once the
// address table has outgrown its first size: below it a table holds
// little, and rebuilding it as an hour's clients come and go would cost
// allocations and return next to nothing.
func (t *clients) evictBefore(cut uint32) int {
	n := 0
	for ip, c := range t.byAddr {
		if c.last < cut {
			delete(t.byAddr, ip)
			n++
		}
	}
	if len(t.byAddr) < t.peak/2 && t.peak > t.first {
		t.rebuild()
	}
	return n
}

// rebuild copies the live records into fresh tables sized to them,
// re-indexing the agents they point at, copied into a fresh arena, and
// dropping the rest. It rebuilds in place: the arena must not be copied
// once written.
func (t *clients) rebuild() {
	byAddr, agents := t.byAddr, t.agents
	t.byAddr, t.peak = make(map[uint32]client, len(byAddr)), len(byAddr)
	t.agents, t.byAgent, t.arena = nil, map[string]uint32{}, strings.Builder{}
	for ip, c := range byAddr {
		ua := agents[c.agent]
		i, seen := t.byAgent[ua.info.Raw]
		if !seen {
			ua.info.Raw = t.own(ua.info.Raw)
			i = t.admit(ua)
		}
		c.agent = i
		t.byAddr[ip] = c
	}
}

// reset empties both tables in place; the agent slots are zeroed and the
// arena dropped, so they keep no agent string alive.
func (t *clients) reset() {
	clear(t.byAddr)
	clear(t.byAgent)
	clear(t.agents)
	t.agents = t.agents[:0]
	t.arena = strings.Builder{}
}

// NewEnricher returns an enricher resolving reputation against rep, which
// may be nil to disable reputation enrichment, for requests judged by
// sides. Its horizon is the longest idle timeout the sides report
// (Idler): none when there are no sides or one of them reports none.
func NewEnricher(rep *iprep.DB, sides ...Detector) *Enricher {
	e := &Enricher{rep: rep, t: newClients(), next: math.MaxUint64}
	if h := Horizon(sides); h > 0 {
		e.horizon = uint32(min((h-1)/stampTick+1, math.MaxUint32))
		e.every, e.next = max(e.horizon/4, 1), 0
	}
	return e
}

// Horizon is the longest idle timeout of sides, or 0 when one of them
// does not report a positive one: past it no side remembers a client.
func Horizon(sides []Detector) time.Duration {
	var h time.Duration
	for _, d := range sides {
		idler, ok := d.(Idler)
		if !ok || idler.IdleTimeout() <= 0 {
			return 0
		}
		h = max(h, idler.IdleTimeout())
	}
	return h
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
// derives from req.Entry; Seq and Entry are the caller's, except that
// Entry.UserAgent is pointed at the agent table's copy of itself. It is
// how a host that numbers the stream itself — the pipeline, the guard —
// enriches on the shard that judges the request, and it does not advance
// Seq.
func (e *Enricher) Fill(req *Request) {
	var derived uaFacts
	entry := &req.Entry
	now := stamp(entry.Time)
	if uint64(now) >= e.next || uint64(now) < e.back {
		e.expire(now)
	}
	ip, cat, ua := e.t.resolve(e.rep, entry.RemoteAddr, entry.UserAgent, now, &derived)
	entry.UserAgent = ua.info.Raw
	req.UA = ua.info
	req.UAHash = ua.hash
	req.IP = ip
	req.IPCat = cat
	req.Target = sitemodel.ClassifyPath(entry.Path)
	req.RobotsDisallowed = sitemodel.DisallowedByRobots(entry.PathOnly())
}

// expire drops the records idle past the horizon at now and schedules the
// next expiry a quarter horizon on; a line more than a quarter horizon
// before now expires the table again, anchored on itself, so one line
// stamped far ahead of the stream does not stop the horizon for the rest
// of it.
func (e *Enricher) expire(now uint32) {
	e.t.evictBefore(now - min(now, e.horizon))
	e.next = uint64(now) + uint64(e.every)
	e.back = uint64(now - min(now, e.every))
}

// EvictBefore drops the records of addresses no line has touched since
// cutoff, freeing the table's memory once most of it is gone, and returns
// how many it dropped: what the horizon does on its own, at a cutoff of
// the caller's. Enrichment is memoisation, so no Request changes.
func (e *Enricher) EvictBefore(cutoff time.Time) int {
	return e.t.evictBefore(stamp(cutoff))
}

// Reset clears the tables and the sequence counter, and restarts the
// horizon's clock: the next dataset may start earlier than this one
// ended. The tables are cleared in place — their buckets stay allocated,
// so replaying a dataset after a reset re-warms without re-growing them.
func (e *Enricher) Reset() {
	e.t.reset()
	e.seq = 0
	if e.horizon > 0 {
		e.next, e.back = 0, 0
	}
}
