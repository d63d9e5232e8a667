package detector

import (
	"sync"
	"sync/atomic"

	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
)

// SharedEnricher is the concurrency-safe counterpart of Enricher, built
// for the live middleware where requests from many connections enrich in
// parallel. It keeps the same clients table — a 16-byte record per
// address, the agents' facts by value, both started over together when
// either is full — and resolves in the same three steps. A line whose
// address and agent the tables both hold — the steady state, whether the
// client repeats its agent (one address hash and a compare) or rotates
// among known ones (a hash of each) — takes only the read lock and writes
// nothing, so enrichment does not serialise behind the per-shard detector
// lock. A new address or an unseen agent is derived (the User-Agent parse,
// the reputation lookup) with no lock held; the write lock is taken only to
// install the result. One instance is shared by every shard: an agent
// parsed for one client is known to all.
type SharedEnricher struct {
	rep *iprep.DB
	seq atomic.Uint64

	mu sync.RWMutex
	t  clients
}

// NewSharedEnricher returns a concurrency-safe enricher resolving
// reputation against rep (nil disables reputation enrichment).
func NewSharedEnricher(rep *iprep.DB) *SharedEnricher {
	return &SharedEnricher{rep: rep, t: newClients()}
}

// EnrichInto overwrites every field of *req with the enriched view of
// entry. Safe for concurrent use; sequence numbers are globally unique
// but, unlike Enricher's, not guaranteed to match arrival order under
// concurrency.
func (e *SharedEnricher) EnrichInto(req *Request, entry logfmt.Entry) {
	addr, agent := entry.RemoteAddr, entry.UserAgent
	var ua uaFacts
	e.mu.RLock()
	f := e.t.lookup(addr, agent)
	if f.known && f.seen {
		ua = e.t.agents[f.c.agent]
	}
	e.mu.RUnlock()

	c := f.c
	if !f.known || !f.seen {
		d := deriveMissing(e.rep, addr, agent, f)
		e.mu.Lock()
		c = e.t.install(e.rep, addr, agent, e.t.lookup(addr, agent), &d)
		ua = e.t.agents[c.agent]
		e.mu.Unlock()
	}
	derive(req, e.seq.Add(1)-1, &entry, &ua, c)
}

// Reset clears the tables in place and restarts the sequence counter.
func (e *SharedEnricher) Reset() {
	e.mu.Lock()
	e.t.reset()
	e.mu.Unlock()
	e.seq.Store(0)
}

// Reputation exposes the reputation database the enricher resolves
// against (nil when reputation enrichment is disabled). The cluster
// plane merges replicated overlay entries into it; lookups stay
// lock-free, so a merge never stalls enrichment.
func (e *SharedEnricher) Reputation() *iprep.DB { return e.rep }
