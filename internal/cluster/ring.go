package cluster

import (
	"sort"
	"strconv"

	"divscrape/internal/fnvhash"
)

// Consistent-hash routing. Each node projects ringVnodes virtual points
// onto a 32-bit ring; a client IP is owned by the first point clockwise
// of its hash. Virtual points keep ownership near-uniform with few
// nodes, and membership changes move only the arcs adjacent to the
// joining or leaving node's points — the property that makes live
// re-partition cheap: most clients keep their owner, so most state never
// has to move.
//
// The client hash is fnvhash.IP32, the same fold httpguard and the
// pipeline shard by, so "the cluster routes a client to node N, and N's
// guard routes it to shard S" composes into one stable partition of the
// client space.

// ringVnodes is the virtual-point count per node. 64 keeps the maximum
// ownership imbalance under ~20% for small clusters while the ring stays
// a few KB.
const ringVnodes = 64

// Ring is an immutable consistent-hash ring over a node set. Build with
// NewRing; lookups are lock-free and allocation-free.
type Ring struct {
	hashes []uint32
	owners []string
}

// NewRing builds a ring over nodes (order-insensitive; duplicates
// collapse). An empty node set yields a ring whose OwnerSkip returns "".
func NewRing(nodes []string) *Ring {
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n != "" && !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{
		hashes: make([]uint32, 0, len(uniq)*ringVnodes),
	}
	type point struct {
		hash uint32
		node string
	}
	points := make([]point, 0, len(uniq)*ringVnodes)
	for _, n := range uniq {
		for v := 0; v < ringVnodes; v++ {
			points = append(points, point{fnvhash.String32(n + "#" + strconv.Itoa(v)), n})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].node < points[j].node
	})
	r.owners = make([]string, len(points))
	for i, p := range points {
		r.hashes = append(r.hashes, p.hash)
		r.owners[i] = p.node
	}
	return r
}

// OwnerSkip returns the node owning ip, walking clockwise past nodes the
// skip predicate rejects (a failure detector's dead set). The second
// return reports whether the primary owner was skipped — degraded
// routing, surfaced on the trace timeline. When every node is rejected
// the primary owner is returned anyway with fellBack true: serving on a
// suspect node beats dropping the request.
func (r *Ring) OwnerSkip(ip uint32, skip func(node string) bool) (owner string, fellBack bool) {
	if len(r.hashes) == 0 {
		return "", false
	}
	h := fnvhash.IP32(ip)
	i := sort.Search(len(r.hashes), func(j int) bool { return r.hashes[j] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	primary := r.owners[i]
	if skip == nil || !skip(primary) {
		return primary, false
	}
	// Walk clockwise to the next point owned by a live node distinct
	// from those already rejected; bounded by one full lap.
	for off := 1; off <= len(r.hashes); off++ {
		cand := r.owners[(i+off)%len(r.hashes)]
		if cand == primary {
			continue
		}
		if !skip(cand) {
			return cand, true
		}
	}
	return primary, true
}
