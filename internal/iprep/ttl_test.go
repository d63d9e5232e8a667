package iprep

import (
	"sync"
	"testing"
	"time"
)

// tempLen is the number of overlay entries, expired ones included until a
// sweep drops them.
func tempLen(db *DB) int { return len(db.loadOverlay()) }

func TestInsertTemporaryOverridesAndExpires(t *testing.T) {
	db := BuildFeed()
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

	// A residential /24 gets confirmed as scraper infrastructure for a day.
	p := MustCIDR("10.1.2.0/24")
	ip, _ := ParseIPv4("10.1.2.3")
	if cat, _ := db.Lookup(ip); cat != Residential {
		t.Fatalf("before overlay: %v, want residential", cat)
	}
	db.MergeTemporary(TempEntry{Prefix: p, Cat: KnownScraper, Until: base.Add(24 * time.Hour)})
	if cat, ok := db.Lookup(ip); !ok || cat != KnownScraper {
		t.Errorf("with overlay: %v, want known-scraper", cat)
	}
	if tempLen(db) != 1 {
		t.Errorf("overlay holds %d, want 1", tempLen(db))
	}
	// Unrelated addresses are untouched.
	other, _ := ParseIPv4("10.1.3.3")
	if cat, _ := db.Lookup(other); cat != Residential {
		t.Errorf("sibling address affected: %v", cat)
	}

	// Before the TTL the sweep keeps it; after, it evicts and the static
	// feed answer returns.
	if n := db.EvictBefore(base.Add(23 * time.Hour)); n != 0 {
		t.Errorf("evicted %d before expiry", n)
	}
	if n := db.EvictBefore(base.Add(25 * time.Hour)); n != 1 {
		t.Errorf("evicted %d after expiry, want 1", n)
	}
	if cat, _ := db.Lookup(ip); cat != Residential {
		t.Errorf("after eviction: %v, want residential", cat)
	}
}

func TestTemporarySpecificityAndReplacement(t *testing.T) {
	db := NewDB()
	db.Insert(MustCIDR("10.0.0.0/8"), Residential)
	until := time.Date(2026, 7, 2, 0, 0, 0, 0, time.UTC)
	ip, _ := ParseIPv4("10.9.9.9")

	// A less specific overlay entry loses to a more specific static one.
	db.Insert(MustCIDR("10.9.9.0/24"), Corporate)
	db.MergeTemporary(TempEntry{Prefix: MustCIDR("10.0.0.0/8"), Cat: ProxyVPN, Until: until})
	if cat, _ := db.Lookup(ip); cat != Corporate {
		t.Errorf("broad overlay beat specific static: %v", cat)
	}

	// Equal specificity: overlay wins.
	db.MergeTemporary(TempEntry{Prefix: MustCIDR("10.9.9.0/24"), Cat: KnownScraper, Until: until})
	if cat, _ := db.Lookup(ip); cat != KnownScraper {
		t.Errorf("equal-specificity overlay lost: %v", cat)
	}

	// Re-inserting the same prefix replaces, not accumulates.
	db.MergeTemporary(TempEntry{Prefix: MustCIDR("10.9.9.0/24"), Cat: TorExit, Until: until.Add(time.Hour)})
	if tempLen(db) != 2 {
		t.Errorf("overlay holds %d, want 2", tempLen(db))
	}
	if cat, _ := db.Lookup(ip); cat != TorExit {
		t.Errorf("replacement not visible: %v", cat)
	}

	// Overlay answers for addresses no static prefix covers.
	outside, _ := ParseIPv4("203.0.113.9")
	if _, ok := db.Lookup(outside); ok {
		t.Fatal("unexpected static match")
	}
	db.MergeTemporary(TempEntry{Prefix: MustCIDR("203.0.113.0/24"), Cat: KnownScraper, Until: until})
	if cat, ok := db.Lookup(outside); !ok || cat != KnownScraper {
		t.Errorf("overlay-only lookup = %v, %v", cat, ok)
	}
}

// The overlay mutates behind an atomic pointer, so lookups may race with
// inserts and sweeps (run under -race in CI).
func TestTemporaryConcurrentLookups(t *testing.T) {
	db := BuildFeed()
	until := time.Date(2026, 7, 2, 0, 0, 0, 0, time.UTC)
	ip, _ := ParseIPv4("172.22.5.5")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					db.Lookup(ip)
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		db.MergeTemporary(TempEntry{Prefix: Prefix{IP: 0xAC160000 + uint32(i)<<8, Bits: 24}, Cat: KnownScraper, Until: until})
		if i%10 == 0 {
			db.EvictBefore(until.Add(time.Hour))
		}
	}
	close(stop)
	wg.Wait()
}

// Mutators serialise on the overlay lock: concurrent operator pushes and
// sweeper evictions must never lose an update (run under -race in CI).
func TestTemporaryConcurrentMutatorsLoseNothing(t *testing.T) {
	db := NewDB()
	until := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	const writers, perWriter = 4, 64
	var wg sync.WaitGroup
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				p := Prefix{IP: uint32(wtr)<<24 | uint32(i)<<8, Bits: 24}
				db.MergeTemporary(TempEntry{Prefix: p, Cat: KnownScraper, Until: until})
				// Interleave sweeps that can evict nothing (everything
				// expires later) but do rewrite the overlay.
				db.EvictBefore(until.Add(-time.Hour))
			}
		}(wtr)
	}
	wg.Wait()
	if got := tempLen(db); got != writers*perWriter {
		t.Errorf("overlay holds %d after concurrent inserts, want %d (updates lost)",
			got, writers*perWriter)
	}
}

func TestMergeTemporaryLongestLeaseWins(t *testing.T) {
	db := NewDB()
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	p := MustCIDR("203.0.113.0/24")

	if !db.MergeTemporary(TempEntry{Prefix: p, Cat: ProxyVPN, Until: base.Add(time.Hour)}) {
		t.Fatal("fresh entry not applied")
	}
	// A shorter or equal lease for the same prefix is stale.
	if db.MergeTemporary(TempEntry{Prefix: p, Cat: KnownScraper, Until: base.Add(time.Hour)}) {
		t.Fatal("equal-lease entry applied")
	}
	if db.MergeTemporary(TempEntry{Prefix: p, Cat: KnownScraper, Until: base.Add(30 * time.Minute)}) {
		t.Fatal("shorter-lease entry applied")
	}
	if cat, ok := db.Lookup(p.Nth(1)); !ok || cat != ProxyVPN {
		t.Fatalf("lookup after stale merges = %v/%v, want ProxyVPN", cat, ok)
	}
	// A longer lease replaces, category included.
	if !db.MergeTemporary(TempEntry{Prefix: p, Cat: KnownScraper, Until: base.Add(2 * time.Hour)}) {
		t.Fatal("longer-lease entry not applied")
	}
	if cat, _ := db.Lookup(p.Nth(1)); cat != KnownScraper {
		t.Fatalf("lookup after upgrade = %v, want KnownScraper", cat)
	}
	if tempLen(db) != 1 {
		t.Fatalf("overlay holds %d, want 1", tempLen(db))
	}
	// Out-of-range bits never land.
	if db.MergeTemporary(TempEntry{Prefix: Prefix{Bits: 40}, Cat: ProxyVPN, Until: base.Add(time.Hour)}) {
		t.Fatal("invalid prefix applied")
	}
	// Nor do unknown categories — this is peer-supplied data.
	if db.MergeTemporary(TempEntry{Prefix: p, Cat: Category(99), Until: base.Add(3 * time.Hour)}) {
		t.Fatal("out-of-range category applied")
	}
	if db.MergeTemporary(TempEntry{Prefix: p, Cat: Category(-1), Until: base.Add(3 * time.Hour)}) {
		t.Fatal("negative category applied")
	}
}

func TestTempEntriesRoundTripThroughMerge(t *testing.T) {
	src := NewDB()
	dst := NewDB()
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	src.MergeTemporary(TempEntry{Prefix: MustCIDR("198.51.100.0/24"), Cat: KnownScraper, Until: base.Add(time.Hour)})
	src.MergeTemporary(TempEntry{Prefix: MustCIDR("192.0.2.64/26"), Cat: ProxyVPN, Until: base.Add(2 * time.Hour)})

	applied := 0
	src.TempEntries(func(e TempEntry) {
		if dst.MergeTemporary(e) {
			applied++
		}
	})
	if applied != 2 || tempLen(dst) != 2 {
		t.Fatalf("applied %d entries, overlay holds %d, want 2/2", applied, tempLen(dst))
	}
	// Second delivery of the same window is a no-op.
	src.TempEntries(func(e TempEntry) {
		if dst.MergeTemporary(e) {
			t.Fatalf("duplicate entry %v applied", e.Prefix)
		}
	})
}
