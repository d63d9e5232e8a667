package cluster_test

import (
	"testing"

	"divscrape/internal/cluster"
)

// owner is the node owning ip, liveness ignored.
func owner(r *cluster.Ring, ip uint32) string {
	o, _ := r.OwnerSkip(ip, nil)
	return o
}

func TestRingOwnershipStableAndTotal(t *testing.T) {
	r := cluster.NewRing([]string{"b", "a", "c", "a", ""})
	owned := map[string]int{}
	for ip := uint32(0); ip < 10000; ip++ {
		n := owner(r, ip*2654435761+7)
		if n == "" {
			t.Fatalf("ip %d unowned", ip)
		}
		owned[n]++
	}
	// Duplicates collapse and the empty name is no member.
	if len(owned) != 3 || owned["a"] == 0 || owned["b"] == 0 || owned["c"] == 0 {
		t.Fatalf("owners %v, want each of a, b and c", owned)
	}
	// Same membership, any order → identical ring.
	r2 := cluster.NewRing([]string{"c", "b", "a"})
	for ip := uint32(0); ip < 2000; ip++ {
		if owner(r, ip) != owner(r2, ip) {
			t.Fatalf("ring not order-insensitive at ip %d", ip)
		}
	}
}

func TestRingMembershipChangeMovesMinority(t *testing.T) {
	before := cluster.NewRing([]string{"a", "b", "c", "d"})
	after := cluster.NewRing([]string{"a", "b", "c"})
	const total = 20000
	moved := 0
	for ip := uint32(0); ip < total; ip++ {
		ob, oa := owner(before, ip), owner(after, ip)
		if ob != oa {
			if ob != "d" {
				t.Fatalf("ip %d moved %s→%s though d left", ip, ob, oa)
			}
			moved++
		}
	}
	// Only d's arcs move: ~1/4 of the space, never the majority.
	if moved == 0 || moved > total/2 {
		t.Fatalf("moved %d of %d clients on one node leaving", moved, total)
	}
}

func TestRingOwnerSkipWalksPastDead(t *testing.T) {
	r := cluster.NewRing([]string{"a", "b", "c"})
	dead := map[string]bool{}
	skip := func(n string) bool { return dead[n] }
	for ip := uint32(1); ip < 500; ip++ {
		primary, fell := r.OwnerSkip(ip, skip)
		if fell {
			t.Fatalf("ip %d fell back with nothing dead", ip)
		}
		dead[primary] = true
		alt, fell := r.OwnerSkip(ip, skip)
		if !fell || alt == primary {
			t.Fatalf("ip %d: skip(%s) → (%s, %v)", ip, primary, alt, fell)
		}
		// All dead → primary returned anyway, flagged.
		dead["a"], dead["b"], dead["c"] = true, true, true
		last, fell := r.OwnerSkip(ip, skip)
		if !fell || last != primary {
			t.Fatalf("ip %d: all-dead → (%s, %v), want (%s, true)", ip, last, fell, primary)
		}
		dead = map[string]bool{}
	}
}

func TestRingEmpty(t *testing.T) {
	r := cluster.NewRing(nil)
	if o := owner(r, 42); o != "" {
		t.Fatalf("empty ring owner = %q", o)
	}
}
