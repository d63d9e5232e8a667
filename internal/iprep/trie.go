package iprep

import "fmt"

// Category classifies the origin of an address range as reputation feeds do.
type Category int

const (
	// Unknown means no feed covers the address.
	Unknown Category = iota
	// Residential ranges belong to consumer ISPs.
	Residential
	// Mobile ranges belong to cellular carrier gateways (heavily NATed).
	Mobile
	// Corporate ranges belong to enterprise egress points (NATed).
	Corporate
	// Datacenter ranges belong to hosting/cloud providers; browsers rarely
	// originate here, scrapers very often do.
	Datacenter
	// ProxyVPN ranges are known anonymising proxy or VPN exits.
	ProxyVPN
	// TorExit ranges are published Tor exit nodes.
	TorExit
	// SearchEngine ranges are verified crawler ranges of search engines.
	SearchEngine
	// KnownScraper ranges have been manually confirmed as scraping
	// infrastructure (the equivalent of a commercial blocklist).
	KnownScraper
)

var categoryNames = map[Category]string{
	Unknown:      "unknown",
	Residential:  "residential",
	Mobile:       "mobile",
	Corporate:    "corporate",
	Datacenter:   "datacenter",
	ProxyVPN:     "proxy-vpn",
	TorExit:      "tor-exit",
	SearchEngine: "search-engine",
	KnownScraper: "known-scraper",
}

// String returns the feed-style name of the category.
func (c Category) String() string {
	if s, ok := categoryNames[c]; ok {
		return s
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// Suspicion returns the prior suspicion weight a reputation consumer
// assigns to the category, in [0, 1].
func (c Category) Suspicion() float64 {
	switch c {
	case KnownScraper:
		return 1.0
	case TorExit:
		return 0.9
	case ProxyVPN:
		return 0.75
	case Datacenter:
		return 0.65
	case SearchEngine:
		return 0.05
	case Corporate:
		return 0.1
	case Mobile:
		// Carrier NAT: individually innocent, but the shared gateways mean
		// a nonzero prior is defensible and is what commercial feeds ship.
		return 0.05
	case Residential:
		return 0.0
	default:
		return 0.2
	}
}

// node is a binary radix-trie node. Children index by the next address bit.
type node struct {
	children [2]*node
	category Category
	terminal bool
}

// Snapshot tag 0x4902 (a reputation-table block) is retired: never reuse it.

// DB is a longest-prefix-match IP reputation database backed by a binary
// radix trie. Inserts are O(prefix length); lookups are O(32). The zero
// value is not usable — construct with NewDB. Like the commercial
// product's feed, it is a fixed input: once built (BuildFeed) nothing
// mutates it, so every guard shard's enricher looks up in one DB with no
// lock.
type DB struct {
	root *node
}

// NewDB returns an empty reputation database.
func NewDB() *DB {
	return &DB{root: &node{}}
}

// Insert registers a prefix with a category. Inserting the same prefix
// twice overwrites the category (last feed wins), mirroring feed refresh
// semantics.
func (db *DB) Insert(p Prefix, c Category) {
	n := db.root
	for depth := 0; depth < p.Bits; depth++ {
		bit := p.IP >> (31 - uint(depth)) & 1
		if n.children[bit] == nil {
			n.children[bit] = &node{}
		}
		n = n.children[bit]
	}
	n.terminal = true
	n.category = c
}

// Lookup returns the category of the most specific prefix containing ip.
// The boolean reports whether any prefix matched.
func (db *DB) Lookup(ip uint32) (Category, bool) {
	n := db.root
	best := Unknown
	found := false
	if n.terminal {
		best, found = n.category, true
	}
	for depth := 0; depth < 32 && n != nil; depth++ {
		bit := ip >> (31 - uint(depth)) & 1
		n = n.children[bit]
		if n != nil && n.terminal {
			best, found = n.category, true
		}
	}
	return best, found
}
