package mitigate

import (
	"strings"

	"divscrape/internal/iprep"
)

// index finds a client's slot in the engine's slab. A key that is a
// canonical dotted quad — exactly what iprep.FormatIPv4 renders — is kept
// as its number, so an IPv4 client costs no string header and pins none
// of the memory its key was cut from (the parser's interned addresses);
// every other key (IPv6, "01.2.3.4", "+1.2.3.4", a name) is kept as a
// string copy of its own. A canonical quad never reaches the string map,
// so two keys that differ as strings stay two clients.
type index struct {
	v4    map[uint32]uint32
	other map[string]uint32
}

func newIndex(v4, other int) index {
	return index{v4: make(map[uint32]uint32, v4), other: make(map[string]uint32, other)}
}

// clientKey is one index entry's key as the index holds it.
type clientKey struct {
	ip  uint32
	v4  bool
	str string
}

// String renders the key as the client named it.
func (k clientKey) String() string {
	if k.v4 {
		return iprep.FormatIPv4(k.ip)
	}
	return k.str
}

func (x *index) len() int { return len(x.v4) + len(x.other) }

// get returns key's slot.
func (x *index) get(key string) (id uint32, ok bool) {
	if ip, v4 := iprep.CanonicalIPv4(key); v4 {
		id, ok = x.v4[ip]
	} else {
		id, ok = x.other[key]
	}
	return id, ok
}

// put files a key that is not in the index under id.
func (x *index) put(key string, id uint32) {
	if ip, v4 := iprep.CanonicalIPv4(key); v4 {
		x.v4[ip] = id
	} else {
		x.other[strings.Clone(key)] = id
	}
}

// each calls fn for every entry, in map order.
func (x *index) each(fn func(k clientKey, id uint32)) {
	for ip, id := range x.v4 {
		fn(clientKey{ip: ip, v4: true}, id)
	}
	for key, id := range x.other {
		fn(clientKey{str: key}, id)
	}
}

// dropIf deletes every entry whose slot drop reports true and returns how
// many went. It renders no key, so it allocates nothing.
func (x *index) dropIf(drop func(id uint32) bool) int {
	n := 0
	for ip, id := range x.v4 {
		if drop(id) {
			delete(x.v4, ip)
			n++
		}
	}
	for key, id := range x.other {
		if drop(id) {
			delete(x.other, key)
			n++
		}
	}
	return n
}

// rebuild replaces both maps with ones sized to their entries, filing
// every key under move(its old slot).
func (x *index) rebuild(move func(id uint32) uint32) {
	next := newIndex(len(x.v4), len(x.other))
	for ip, id := range x.v4 {
		next.v4[ip] = move(id)
	}
	for key, id := range x.other {
		next.other[key] = move(id)
	}
	*x = next
}

func (x *index) reset() {
	clear(x.v4)
	clear(x.other)
}
