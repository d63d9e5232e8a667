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
// Enricher is not safe for concurrent use; the pipeline owns one.
type Enricher struct {
	rep     *iprep.DB
	uaCache map[string]uaFacts
	ipCache map[string]ipInfo
	seq     uint64
}

// uaFacts is everything enrichment derives from a User-Agent string. The
// UA caches hold one per distinct string, so the parse and the session-key
// hash are paid once per agent, not once per request per detector.
type uaFacts struct {
	info uaparse.Info
	hash uint64
}

func deriveUA(ua string) uaFacts {
	return uaFacts{info: uaparse.Parse(ua), hash: sessions.KeyFor(0, ua).UAHash}
}

type ipInfo struct {
	ip  uint32
	cat iprep.Category
}

// deriveIP resolves a client address; an unparsable one keeps the zero
// address and category.
func deriveIP(rep *iprep.DB, addr string) ipInfo {
	var info ipInfo
	if ip, err := iprep.ParseIPv4(addr); err == nil {
		info.ip = ip
		if rep != nil {
			info.cat, _ = rep.Lookup(ip)
		}
	}
	return info
}

// derive is the one place a Request is assembled. Both enrichers resolve
// the per-agent and per-address facts through their own caches and hand
// them here, so they cannot drift apart in what they fill; the path facts
// are computed here, once, for every detector. Every field of *req is
// overwritten.
func derive(req *Request, seq uint64, entry *logfmt.Entry, ua *uaFacts, ip ipInfo) {
	req.Seq = seq
	req.Entry = *entry
	req.UA = ua.info
	req.UAHash = ua.hash
	req.IP = ip.ip
	req.IPCat = ip.cat
	req.Target = sitemodel.ClassifyPath(entry.Path)
	req.RobotsDisallowed = sitemodel.DisallowedByRobots(entry.PathOnly())
}

// Cache bounds shared by both enrichers.
const (
	maxCachedUAs = 1 << 16
	maxCachedIPs = 1 << 20
)

// admit caches v under key, starting the cache over when it holds max
// entries: the bound holds against adversarial churn, and a cache that
// stopped admitting instead would leave every client arriving after one
// flood uncached — a full User-Agent parse per line — for good.
func admit[V any](cache map[string]V, max int, key string, v V) {
	if len(cache) >= max {
		clear(cache)
	}
	cache[key] = v
}

// NewEnricher returns an enricher resolving reputation against rep, which
// may be nil to disable reputation enrichment.
func NewEnricher(rep *iprep.DB) *Enricher {
	return &Enricher{
		rep:     rep,
		uaCache: make(map[string]uaFacts, 1024),
		ipCache: make(map[string]ipInfo, 4096),
	}
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
	ua, ok := e.uaCache[entry.UserAgent]
	if !ok {
		ua = deriveUA(entry.UserAgent)
		admit(e.uaCache, maxCachedUAs, entry.UserAgent, ua)
	}
	info, ok := e.ipCache[entry.RemoteAddr]
	if !ok {
		info = deriveIP(e.rep, entry.RemoteAddr)
		admit(e.ipCache, maxCachedIPs, entry.RemoteAddr, info)
	}
	derive(req, e.seq, &entry, &ua, info)
	e.seq++
}

// Seq returns the number of entries enriched so far.
func (e *Enricher) Seq() uint64 { return e.seq }

// Reset clears caches and the sequence counter. The cache maps are cleared
// in place — their buckets stay allocated, so replaying a dataset after a
// reset re-warms without re-growing them.
func (e *Enricher) Reset() {
	clear(e.uaCache)
	clear(e.ipCache)
	e.seq = 0
}
