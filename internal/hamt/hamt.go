// Package hamt is a persistent, string-keyed hash array mapped trie
// (Bagwell, "Ideal Hash Trees", 2001) in the compressed layout of
// Steindorfer and Vinju's CHAMP: each node has 32 slots addressed by 5
// bits of the key's hash, and two bitmaps say which slots hold a value
// inline and which hold a sub-node. A lookup hashes the key once and
// takes 5 bits per level, so it visits O(log₃₂ n) nodes. A node's
// 32-byte header (bitmaps, build token and two array pointers) is
// stored in its parent's child array, so a lookup loads one array per
// level, and every array has exactly as many elements as its bitmap
// has bits.
//
// A Map is immutable. Edits go through a Builder, which copies only
// the nodes on the path to each key it changes and shares every other
// node with the map it started from. Every node carries the token of
// the build that allocated its arrays, and a build writes in place
// only arrays with its own token (as Clojure's transients do), so a
// build copies each node on its paths at most once however many keys
// it touches. The arrays a build owns grow in powers of two and are
// trimmed to their lengths when the build ends, so a bulk build from
// nothing allocates O(n) and publishes no spare room.
//
// Values carry their own keys: the map stores only the value, in place
// in its node's value array, and asks the key function for the key when
// it compares. A lookup therefore reaches a value-type entry's fields
// in the same load that finds it. Keys whose 64-bit hashes are equal
// share a collision node at the bottom of the trie.
package hamt

import (
	"hash/maphash"
	"math/bits"
	"slices"
	"unsafe"
)

const (
	bitsPerLevel = 5
	slotMask     = 1<<bitsPerLevel - 1
)

// token identifies one build. It has a size so that distinct tokens
// have distinct addresses.
type token struct{ _ byte }

// node is one trie node's header. Slot s holds a value when bit s of
// datamap is set and a sub-node when bit s of nodemap is set; vals and
// nodes point at arrays holding them in slot order (nil when empty).
// A node below the last hash level is a collision node: its values'
// keys hash alike, datamap counts them and nodemap is zero. tok is the
// build that allocated the arrays; a published array is never written.
type node[V any] struct {
	datamap, nodemap uint32
	tok              *token
	vals             *V
	nodes            *node[V]
}

// Map is an immutable map from string keys to values that carry them.
// The zero Map is not usable; start from New.
type Map[V any] struct {
	root node[V]
	n    int
	key  func(*V) string
	seed maphash.Seed
	// mask truncates hashes; it is all ones except in this package's
	// tests, which shorten hashes to force prefix and full collisions.
	mask uint64
}

// New returns an empty map whose values' keys are key(&v), with a
// fresh hash seed that every map derived from it shares.
func New[V any](key func(*V) string) Map[V] {
	return Map[V]{key: key, seed: maphash.MakeSeed(), mask: ^uint64(0)}
}

func (m *Map[V]) hash(k string) uint64 { return maphash.String(m.seed, k) & m.mask }

// slot returns the bit of h's slot at the level that starts at shift.
func slot(h uint64, shift uint) uint32 { return 1 << (h >> shift & slotMask) }

// index returns the position in a node's array of the entry at bit.
func index(bitmap, bit uint32) int { return bits.OnesCount32(bitmap & (bit - 1)) }

// valSlice returns n's values; shift is n's level.
func (n *node[V]) valSlice(shift uint) []V {
	if n.vals == nil {
		return nil
	}
	c := uint32(bits.OnesCount32(n.datamap))
	if shift >= 64 {
		c = n.datamap
	}
	return unsafe.Slice(n.vals, c)
}

// nodeSlice returns n's children's headers.
func (n *node[V]) nodeSlice() []node[V] {
	if n.nodes == nil {
		return nil
	}
	return unsafe.Slice(n.nodes, bits.OnesCount32(n.nodemap))
}

// Len returns the number of values in the map.
func (m *Map[V]) Len() int { return m.n }

// Get returns the value whose key is k.
func (m *Map[V]) Get(k string) (V, bool) {
	if v := m.Ref(k); v != nil {
		return *v, true
	}
	var zero V
	return zero, false
}

// Ref returns the value whose key is k in place, nil if there is none.
// The value belongs to the map: it must not be written through the
// pointer.
func (m *Map[V]) Ref(k string) *V {
	h := m.hash(k)
	n := &m.root
	for shift := uint(0); shift < 64; shift += bitsPerLevel {
		bit := slot(h, shift)
		if n.datamap&bit != 0 {
			v := (*V)(unsafe.Add(unsafe.Pointer(n.vals), uintptr(index(n.datamap, bit))*unsafe.Sizeof(*n.vals)))
			if m.key(v) == k {
				return v
			}
			return nil
		}
		if n.nodemap&bit == 0 {
			return nil
		}
		n = (*node[V])(unsafe.Add(unsafe.Pointer(n.nodes), uintptr(index(n.nodemap, bit))*unsafe.Sizeof(*n)))
	}
	vals := n.valSlice(64)
	for i := range vals {
		if m.key(&vals[i]) == k {
			return &vals[i]
		}
	}
	return nil
}

// Range calls fn with every value in place, in no particular order,
// until fn returns false. fn must not write through the pointer.
func (m *Map[V]) Range(fn func(*V) bool) { m.root.each(0, fn) }

func (n *node[V]) each(shift uint, fn func(*V) bool) bool {
	vals := n.valSlice(shift)
	for i := range vals {
		if !fn(&vals[i]) {
			return false
		}
	}
	kids := n.nodeSlice()
	for i := range kids {
		if !kids[i].each(shift+bitsPerLevel, fn) {
			return false
		}
	}
	return true
}

// Bytes returns the heap bytes the map's arrays occupy: each node's
// value array and its child array, which holds the children's headers.
// The root's header is part of the Map value itself. Values are counted
// at their own size, not what they point to.
func (m *Map[V]) Bytes() int64 { return m.root.bytes(0) }

func (n *node[V]) bytes(shift uint) int64 {
	var v V
	kids := n.nodeSlice()
	b := int64(len(n.valSlice(shift)))*int64(unsafe.Sizeof(v)) + int64(len(kids))*int64(unsafe.Sizeof(*n))
	for i := range kids {
		b += kids[i].bytes(shift + bitsPerLevel)
	}
	return b
}

// same reports whether two headers describe the same node: the same
// bitmaps over the same arrays.
func (n *node[V]) same(o *node[V]) bool {
	return n.datamap == o.datamap && n.nodemap == o.nodemap && n.vals == o.vals && n.nodes == o.nodes
}

// Sharing compares m with prev, a map m was derived from: fresh counts
// the nodes of m that prev does not have at the same place in the
// trie, and total counts all of m's nodes.
func (m *Map[V]) Sharing(prev *Map[V]) (fresh, total int) {
	if m.n == 0 {
		return 0, 0
	}
	var walk func(n, old *node[V]) (int, int)
	walk = func(n, old *node[V]) (fresh, total int) {
		if old != nil && n.same(old) {
			return 0, n.count()
		}
		fresh, total = 1, 1
		kids := n.nodeSlice()
		for i := range kids {
			var oc *node[V]
			if old != nil {
				if bit := bitAt(n.nodemap, i); old.nodemap&bit != 0 {
					oc = &old.nodeSlice()[index(old.nodemap, bit)]
				}
			}
			f, t := walk(&kids[i], oc)
			fresh, total = fresh+f, total+t
		}
		return fresh, total
	}
	return walk(&m.root, &prev.root)
}

func (n *node[V]) count() int {
	c := 1
	kids := n.nodeSlice()
	for i := range kids {
		c += kids[i].count()
	}
	return c
}

// bitAt returns the i-th set bit of bitmap.
func bitAt(bitmap uint32, i int) uint32 {
	for ; i > 0; i-- {
		bitmap &= bitmap - 1
	}
	return bitmap & -bitmap
}

// Builder derives a new Map from an existing one. Reads see the map as
// built so far. A Builder is not safe for concurrent use.
type Builder[V any] struct {
	m   Map[V]
	tok *token
	// in holds the value being put while its key is read, so that
	// taking its address for the key function allocates nothing.
	in V
}

// Edit starts a build from m; m itself is never changed.
func (m *Map[V]) Edit() *Builder[V] { return &Builder[V]{m: *m, tok: new(token)} }

// Len returns the number of values in the map as built so far.
func (b *Builder[V]) Len() int { return b.m.n }

// Get returns the value whose key is k in the map as built so far.
func (b *Builder[V]) Get(k string) (V, bool) { return b.m.Get(k) }

// Map returns the built map. Later edits through b copy what they
// change, so the returned map stays as it is.
func (b *Builder[V]) Map() Map[V] {
	b.trim(&b.m.root, 0)
	b.tok = new(token)
	return b.m
}

// trim cuts the arrays this build allocated to their lengths, so a
// published array has no spare room. Only a node this build owns can
// hold one, so trim skips every shared subtree.
func (b *Builder[V]) trim(n *node[V], shift uint) {
	if n.tok != b.tok {
		return
	}
	if vals := n.valSlice(shift); len(vals) != room(len(vals)) {
		n.vals = first(slices.Clone(vals))
	}
	kids := n.nodeSlice()
	if len(kids) != room(len(kids)) {
		kids = slices.Clone(kids)
		n.nodes = first(kids)
	}
	for i := range kids {
		b.trim(&kids[i], shift+bitsPerLevel)
	}
}

// Put binds v under its key, replacing the value there, and reports
// whether the key is new.
func (b *Builder[V]) Put(v V) bool {
	b.in = v
	k := b.m.key(&b.in)
	var zero V
	b.in = zero
	added := b.put(&b.m.root, 0, b.m.hash(k), k, v)
	if added {
		b.m.n++
	}
	return added
}

// Delete removes the value whose key is k and reports whether there
// was one.
func (b *Builder[V]) Delete(k string) bool {
	if _, ok := b.m.Get(k); !ok {
		return false
	}
	b.del(&b.m.root, 0, b.m.hash(k), k)
	b.m.n--
	return true
}

// own makes n's arrays this build's, copying them if another build
// allocated them. The caller owns the memory n itself is in.
func (b *Builder[V]) own(n *node[V], shift uint) {
	if n.tok != b.tok {
		n.vals, n.nodes, n.tok = owned(n.valSlice(shift)), owned(n.nodeSlice()), b.tok
	}
}

// room is the capacity of an array of n elements that a build owns:
// the next power of two, so a run of insertions into one node copies
// its array O(log 32) times rather than once per insertion. Map trims
// the spare room away.
func room(n int) int {
	if n <= 1 {
		return n
	}
	return 1 << bits.Len(uint(n-1))
}

// first returns the address of s's first element, nil if s is empty.
func first[T any](s []T) *T {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

// owned returns a copy of s with capacity room(len(s)).
func owned[T any](s []T) *T {
	out := make([]T, len(s), room(len(s)))
	copy(out, s)
	return first(out)
}

// insert returns s, an array this build owns, with v at position i; it
// grows s in place when s has room.
func insert[T any](s []T, i int, v T) *T {
	n := len(s)
	var out []T
	if n < room(n) {
		out = unsafe.Slice(&s[0], room(n))[:n+1]
	} else {
		out = make([]T, n+1, room(n+1))
		copy(out, s[:i])
	}
	copy(out[i+1:], s[i:])
	out[i] = v
	return &out[0]
}

// remove returns a new array holding s without position i.
func remove[T any](s []T, i int) *T {
	out := make([]T, len(s)-1, room(len(s)-1))
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return first(out)
}

// put binds v (key k, hash h) in the subtree n at the level that
// starts at shift.
func (b *Builder[V]) put(n *node[V], shift uint, h uint64, k string, v V) bool {
	b.own(n, shift)
	vals := n.valSlice(shift)
	if shift >= 64 {
		if i := b.find(vals, k); i >= 0 {
			vals[i] = v
			return false
		}
		n.vals = insert(vals, len(vals), v)
		n.datamap++
		return true
	}
	bit := slot(h, shift)
	switch {
	case n.datamap&bit != 0:
		i := index(n.datamap, bit)
		ok := b.m.key(&vals[i])
		if ok == k {
			vals[i] = v
			return false
		}
		child := b.pair(shift+bitsPerLevel, vals[i], b.m.hash(ok), v, h)
		n.vals = remove(vals, i)
		n.datamap &^= bit
		n.nodes = insert(n.nodeSlice(), index(n.nodemap, bit), child)
		n.nodemap |= bit
		return true
	case n.nodemap&bit != 0:
		return b.put(&n.nodeSlice()[index(n.nodemap, bit)], shift+bitsPerLevel, h, k, v)
	default:
		n.vals = insert(vals, index(n.datamap, bit), v)
		n.datamap |= bit
		return true
	}
}

// pair returns a new subtree holding v1 and v2, whose hashes agree
// below shift.
func (b *Builder[V]) pair(shift uint, v1 V, h1 uint64, v2 V, h2 uint64) node[V] {
	if shift >= 64 {
		return node[V]{tok: b.tok, datamap: 2, vals: &[]V{v1, v2}[0]}
	}
	s1, s2 := slot(h1, shift), slot(h2, shift)
	if s1 == s2 {
		return node[V]{tok: b.tok, nodemap: s1, nodes: &[]node[V]{b.pair(shift+bitsPerLevel, v1, h1, v2, h2)}[0]}
	}
	if s1 > s2 {
		v1, v2 = v2, v1
	}
	return node[V]{tok: b.tok, datamap: s1 | s2, vals: &[]V{v1, v2}[0]}
}

// del removes key k (hash h), which the subtree n holds, at the level
// that starts at shift. A sub-node left holding one value is folded
// into its parent's slot, so the trie's shape depends only on its keys.
func (b *Builder[V]) del(n *node[V], shift uint, h uint64, k string) {
	b.own(n, shift)
	vals := n.valSlice(shift)
	if shift >= 64 {
		n.vals = remove(vals, b.find(vals, k))
		n.datamap--
		return
	}
	bit := slot(h, shift)
	if n.datamap&bit != 0 {
		n.vals = remove(vals, index(n.datamap, bit))
		n.datamap &^= bit
		return
	}
	i := index(n.nodemap, bit)
	kids := n.nodeSlice()
	c := &kids[i]
	b.del(c, shift+bitsPerLevel, h, k)
	if c.nodemap != 0 || len(c.valSlice(shift+bitsPerLevel)) != 1 {
		return
	}
	v := *c.vals
	n.nodes = remove(kids, i)
	n.nodemap &^= bit
	n.vals = insert(vals, index(n.datamap, bit), v)
	n.datamap |= bit
}

// find returns the position of the value whose key is k, or -1.
func (b *Builder[V]) find(vals []V, k string) int {
	for i := range vals {
		if b.m.key(&vals[i]) == k {
			return i
		}
	}
	return -1
}
