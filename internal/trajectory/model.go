// Package trajectory implements a semantic navigation-trajectory detector:
// the third first-class detector family, judging sessions by *where they
// go* rather than what they claim to be (internal/sentinel) or how fast
// and regularly they go there (internal/arcane). It exploits the site
// model: every request classifies to a sitemodel.PageKind, a session is a
// walk over those kinds, and benign walks — human browsing, declared
// crawlers, monitors — concentrate on a small set of transitions a
// first-order Markov chain captures well. Scraping walks do not: price-API
// hammering, depth-first catalogue sweeps without asset fetches, and
// teleporting enumeration all spend their transitions where benign mass is
// thin.
//
// The chain is trained offline on the benign slice of an independently
// seeded workload (see Train), mirroring how internal/bayes trains its
// model, and stays immutable afterwards — one trained Model is safely
// shared by every detector instance across shards. Content-aware features
// of this family are the ones "Web Robot Detection in Academic Publishing"
// (Lagopoulos et al.) found to beat request-level ones on sophisticated
// bots, which is exactly the diversity bet: strong where the other two are
// structurally blind (clean fingerprints, patient pacing), weak where they
// are strong (no reputation, no timing).
package trajectory

import (
	"fmt"
	"math"

	"divscrape/internal/sitemodel"
)

// kindCount aliases the site model's kind count for table sizing.
const kindCount = int(sitemodel.KindCount)

// Model is the benign navigation model: a Laplace-smoothed first-order
// Markov chain over PageKind transitions plus the benign baselines the
// detector's features compare sessions against. A Model is immutable
// after training and safe for concurrent readers; detector shards share
// one instance.
type Model struct {
	// surprise[a][b] is -log2 P(next=b | prev=a) in bits.
	surprise [sitemodel.KindCount][sitemodel.KindCount]float64
	// seen[a][b] marks transitions observed at least once in training;
	// unseen transitions are the link-fidelity signal (benign navigation
	// follows links the site actually presents).
	seen [sitemodel.KindCount][sitemodel.KindCount]bool
	// baselineSurprise is benign traffic's empirical cross-entropy under
	// the chain, in bits per transition: the level a benign session's
	// mean surprise hovers at.
	baselineSurprise float64
	// baselineEntropy is the mean per-session entropy of the kind-visit
	// distribution over benign sessions, in bits; sessions far below it
	// are hammering one corner of the site.
	baselineEntropy float64
	// mixPages, mixAssets, mixAPI are the benign shares of HTML pages,
	// static assets and price-API calls among those three classes.
	mixPages, mixAssets, mixAPI float64
	trained                     bool
}

// Trained reports whether the model holds a fitted chain.
func (m *Model) Trained() bool { return m.trained }

// Surprise returns the chain's surprise for one transition in bits.
func (m *Model) Surprise(prev, next sitemodel.PageKind) float64 {
	return m.surprise[prev][next]
}

// Seen reports whether training observed the transition at all.
func (m *Model) Seen(prev, next sitemodel.PageKind) bool {
	return m.seen[prev][next]
}

// counts accumulates the sufficient statistics Train gathers before
// finalising a Model.
type counts struct {
	trans [sitemodel.KindCount][sitemodel.KindCount]uint64
	// entropySum/entropyN average per-session kind entropy.
	entropySum float64
	entropyN   uint64
	pages      uint64
	assets     uint64
	api        uint64
}

// finalize fits the smoothed chain and baselines from the gathered
// statistics.
func (c *counts) finalize() (*Model, error) {
	m := &Model{}
	var totalTrans, surpriseWeighted float64
	for a := 0; a < kindCount; a++ {
		var row uint64
		for b := 0; b < kindCount; b++ {
			row += c.trans[a][b]
		}
		den := float64(row) + float64(kindCount) // Laplace: +1 per cell
		for b := 0; b < kindCount; b++ {
			p := (float64(c.trans[a][b]) + 1) / den
			m.surprise[a][b] = -math.Log2(p)
			m.seen[a][b] = c.trans[a][b] > 0
			totalTrans += float64(c.trans[a][b])
			surpriseWeighted += float64(c.trans[a][b]) * m.surprise[a][b]
		}
	}
	if totalTrans == 0 || c.entropyN == 0 {
		return nil, fmt.Errorf("trajectory: training window produced no benign transitions")
	}
	m.baselineSurprise = surpriseWeighted / totalTrans
	m.baselineEntropy = c.entropySum / float64(c.entropyN)
	if content := c.pages + c.assets + c.api; content > 0 {
		m.mixPages = float64(c.pages) / float64(content)
		m.mixAssets = float64(c.assets) / float64(content)
		m.mixAPI = float64(c.api) / float64(content)
	}
	m.trained = true
	return m, nil
}

// kindEntropy computes the Shannon entropy (bits) of a kind-visit count
// vector. Allocation-free; shared by training and scoring.
func kindEntropy(kinds *[sitemodel.KindCount]uint32) float64 {
	var total uint32
	for _, n := range kinds {
		total += n
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	ft := float64(total)
	for _, n := range kinds {
		if n == 0 {
			continue
		}
		p := float64(n) / ft
		h -= p * math.Log2(p)
	}
	return h
}
