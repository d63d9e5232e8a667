package detector

import (
	"sync"
	"sync/atomic"

	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
)

// SharedEnricher is the concurrency-safe counterpart of Enricher, built
// for the live middleware where requests from many connections enrich in
// parallel. Cache hits — the overwhelming steady state, since UA strings
// and client addresses repeat heavily — take only a read lock, so
// enrichment no longer serialises behind the per-shard detector lock; the
// write lock is taken briefly on misses to install the parsed result.
// One instance is shared by every shard: a UA parsed for one client is a
// hit for all.
type SharedEnricher struct {
	rep *iprep.DB
	seq atomic.Uint64

	mu      sync.RWMutex
	uaCache map[string]uaFacts
	ipCache map[string]ipInfo
}

// NewSharedEnricher returns a concurrency-safe enricher resolving
// reputation against rep (nil disables reputation enrichment).
func NewSharedEnricher(rep *iprep.DB) *SharedEnricher {
	return &SharedEnricher{
		rep:     rep,
		uaCache: make(map[string]uaFacts, 1024),
		ipCache: make(map[string]ipInfo, 4096),
	}
}

// EnrichInto overwrites every field of *req with the enriched view of
// entry. Safe for concurrent use; sequence numbers are globally unique
// but, unlike Enricher's, not guaranteed to match arrival order under
// concurrency.
func (e *SharedEnricher) EnrichInto(req *Request, entry logfmt.Entry) {
	e.mu.RLock()
	ua, uaHit := e.uaCache[entry.UserAgent]
	info, ipHit := e.ipCache[entry.RemoteAddr]
	e.mu.RUnlock()

	if !uaHit {
		ua = deriveUA(entry.UserAgent)
		e.mu.Lock()
		admit(e.uaCache, maxCachedUAs, entry.UserAgent, ua)
		e.mu.Unlock()
	}
	if !ipHit {
		info = deriveIP(e.rep, entry.RemoteAddr)
		e.mu.Lock()
		admit(e.ipCache, maxCachedIPs, entry.RemoteAddr, info)
		e.mu.Unlock()
	}
	derive(req, e.seq.Add(1)-1, &entry, &ua, info)
}

// Reset clears the caches in place and restarts the sequence counter.
func (e *SharedEnricher) Reset() {
	e.mu.Lock()
	clear(e.uaCache)
	clear(e.ipCache)
	e.mu.Unlock()
	e.seq.Store(0)
}

// Reputation exposes the reputation database the enricher resolves
// against (nil when reputation enrichment is disabled). The cluster
// plane merges replicated overlay entries into it; lookups stay
// lock-free, so a merge never stalls enrichment.
func (e *SharedEnricher) Reputation() *iprep.DB { return e.rep }
