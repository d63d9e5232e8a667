package iprep

import (
	"fmt"
	"sync"
)

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

// Valid reports whether c is one of the defined feed categories — the
// bound replication decoders and merge paths enforce on peer-supplied
// values, so a buggy or hostile peer cannot plant meaningless category
// numbers in a shared reputation DB.
func (c Category) Valid() bool { return c >= Unknown && c <= KnownScraper }

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

// DB is a longest-prefix-match IP reputation database backed by a binary
// radix trie, plus a TTL-bounded dynamic overlay (see ttl.go). Inserts
// are O(prefix length); lookups are O(32). The zero value is not usable —
// construct with NewDB.
//
// The static trie is immutable once built; the overlay mutates behind an
// atomic pointer with mutators serialised on tempMu. Lookup is therefore
// safe to call concurrently with InsertTemporary/EvictBefore (and those
// with each other), which is how every guard shard's enricher uses one
// DB.
type DB struct {
	root   *node
	count  int
	temp   tempPtr
	tempMu sync.Mutex
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
	if !n.terminal {
		db.count++
	}
	n.terminal = true
	n.category = c
}

// InsertCIDR parses and inserts a CIDR string.
func (db *DB) InsertCIDR(cidr string, c Category) error {
	p, err := ParseCIDR(cidr)
	if err != nil {
		return err
	}
	db.Insert(p, c)
	return nil
}

// Lookup returns the category of the most specific prefix containing ip,
// across the static feed and the dynamic overlay (the overlay wins ties —
// fresher intelligence). The boolean reports whether any prefix matched.
func (db *DB) Lookup(ip uint32) (Category, bool) {
	n := db.root
	best := Unknown
	found := false
	bits := 0
	if n.terminal {
		best, found = n.category, true
	}
	for depth := 0; depth < 32 && n != nil; depth++ {
		bit := ip >> (31 - uint(depth)) & 1
		n = n.children[bit]
		if n != nil && n.terminal {
			best, found, bits = n.category, true, depth+1
		}
	}
	if cat, ok, _ := db.lookupTemp(ip, bits, found); ok {
		return cat, true
	}
	return best, found
}

// LookupString parses a dotted-quad address and looks it up.
func (db *DB) LookupString(ip string) (Category, bool, error) {
	addr, err := ParseIPv4(ip)
	if err != nil {
		return Unknown, false, err
	}
	cat, ok := db.Lookup(addr)
	return cat, ok, nil
}

// Len returns the number of distinct prefixes stored.
func (db *DB) Len() int { return db.count }

// Walk visits every stored prefix in ascending address order, calling fn
// with the prefix and its category. Walking stops early if fn returns
// false.
func (db *DB) Walk(fn func(Prefix, Category) bool) {
	var visit func(n *node, ip uint32, depth int) bool
	visit = func(n *node, ip uint32, depth int) bool {
		if n == nil {
			return true
		}
		if n.terminal {
			if !fn(Prefix{IP: ip, Bits: depth}, n.category) {
				return false
			}
		}
		if !visit(n.children[0], ip, depth+1) {
			return false
		}
		return visit(n.children[1], ip|1<<(31-uint(depth)), depth+1)
	}
	visit(db.root, 0, 0)
}
