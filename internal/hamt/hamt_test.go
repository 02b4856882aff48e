package hamt

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

type item struct {
	k string
	v int
}

func keyOf(it **item) string { return (*it).k }

// newMasked returns an empty map whose hashes keep only the bits in
// mask: a short mask forces keys to share hash prefixes, and a mask
// narrower than the key space forces full-hash collisions.
func newMasked(mask uint64) Map[*item] {
	m := New(keyOf)
	m.mask = mask
	return m
}

func TestPutGetDelete(t *testing.T) {
	for _, mask := range []uint64{^uint64(0), 0x3ff, 0} {
		m := newMasked(mask)
		b := m.Edit()
		const n = 2000
		for i := 0; i < n; i++ {
			if !b.Put(&item{k: fmt.Sprint(i), v: i}) {
				t.Fatalf("mask %x: put %d reported an existing key", mask, i)
			}
		}
		if b.Put(&item{k: "7", v: -7}) {
			t.Fatalf("mask %x: replacing put reported a new key", mask)
		}
		full := b.Map()
		if full.Len() != n {
			t.Fatalf("mask %x: Len = %d, want %d", mask, full.Len(), n)
		}
		for i := 0; i < n; i++ {
			want := i
			if i == 7 {
				want = -7
			}
			if it, ok := full.Get(fmt.Sprint(i)); !ok || it.v != want {
				t.Fatalf("mask %x: Get(%d) = %v, %v", mask, i, it, ok)
			}
		}
		if _, ok := full.Get("absent"); ok {
			t.Fatalf("mask %x: found an absent key", mask)
		}
		d := full.Edit()
		for i := 0; i < n; i += 2 {
			if !d.Delete(fmt.Sprint(i)) {
				t.Fatalf("mask %x: delete %d found nothing", mask, i)
			}
		}
		if d.Delete("absent") {
			t.Fatalf("mask %x: deleted an absent key", mask)
		}
		half := d.Map()
		if half.Len() != n/2 || full.Len() != n {
			t.Fatalf("mask %x: Len = %d and %d after deleting half", mask, half.Len(), full.Len())
		}
		seen := 0
		half.Range(func(it **item) bool {
			if v := (*it).v; v%2 == 0 && v != -7 {
				t.Fatalf("mask %x: deleted %d still present", mask, v)
			}
			seen++
			return true
		})
		if seen != n/2 {
			t.Fatalf("mask %x: Range saw %d values", mask, seen)
		}
		if _, ok := full.Get("0"); !ok {
			t.Fatalf("mask %x: delete reached the earlier map", mask)
		}
	}
}

func TestEmptyMap(t *testing.T) {
	m := New(keyOf)
	if _, ok := m.Get("x"); ok || m.Len() != 0 || m.Bytes() != 0 {
		t.Fatal("empty map holds something")
	}
	m.Range(func(**item) bool { t.Fatal("Range over an empty map called fn"); return false })
	if m.Edit().Delete("x") {
		t.Fatal("deleted from an empty map")
	}
	if f, tot := m.Sharing(&m); f != 0 || tot != 0 {
		t.Fatalf("Sharing of an empty map = %d, %d", f, tot)
	}
}

func TestRangeStops(t *testing.T) {
	m := New(keyOf)
	b := m.Edit()
	for i := 0; i < 500; i++ {
		b.Put(&item{k: fmt.Sprint(i)})
	}
	m = b.Map()
	calls := 0
	m.Range(func(**item) bool { calls++; return calls < 3 })
	if calls != 3 {
		t.Fatalf("Range made %d calls after fn returned false", calls)
	}
}

// TestBytesByHand pins Bytes on a trie whose shape a zero mask fixes:
// two keys with equal hashes sit in a collision node under a chain of
// one sub-node per hash level below the root.
func TestBytesByHand(t *testing.T) {
	m := newMasked(0)
	b := m.Edit()
	b.Put(&item{k: "a"})
	b.Put(&item{k: "b"})
	m = b.Map()
	header := int64(unsafe.Sizeof(node[*item]{}))
	const ptr = 8
	// Below the root (shift 0) hang one node per level at shifts 5..60
	// (12) and the collision node, each header alone in its parent's
	// child array. The root's value array went when "a" moved down, and
	// the collision node holds two values.
	levels := int64(64+bitsPerLevel-1) / bitsPerLevel // 13 hash levels
	want := levels*header + 2*ptr
	if got := m.Bytes(); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
	if _, total := m.Sharing(&m); int64(total) != levels+1 {
		t.Fatalf("%d nodes, want %d", total, levels+1)
	}
}

// TestBuildAllocatesLinearly: a bulk build from nothing copies no
// node it allocated itself, so each put allocates the one or two
// arrays of the node it lands in, never a copy of its whole path.
func TestBuildAllocatesLinearly(t *testing.T) {
	const n = 4096
	items := make([]*item, n)
	for i := range items {
		items[i] = &item{k: fmt.Sprint(i)}
	}
	var m Map[*item]
	allocs := testing.AllocsPerRun(3, func() {
		m = New(keyOf)
		b := m.Edit()
		for _, it := range items {
			b.Put(it)
		}
		m = b.Map()
	})
	_, nodes := m.Sharing(&Map[*item]{})
	// Copying the path (3 levels here) would cost some 6 allocations
	// per put.
	if allocs > 2*n || float64(nodes) > float64(n)/2 {
		t.Fatalf("bulk build of %d keys: %.0f allocations, %d nodes", n, allocs, nodes)
	}
}

// TestEditCopiesPath: a put into a published map copies only the nodes
// on its key's path and shares the rest.
func TestEditCopiesPath(t *testing.T) {
	m := New(keyOf)
	b := m.Edit()
	for i := 0; i < 20000; i++ {
		b.Put(&item{k: fmt.Sprint(i)})
	}
	m = b.Map()
	e := m.Edit()
	e.Put(&item{k: "123", v: 1})
	next := e.Map()
	fresh, total := next.Sharing(&m)
	if depth := 5; fresh > depth || total < 100 {
		t.Fatalf("one put copied %d of %d nodes", fresh, total)
	}
}

// harness runs a fuzz script against a Go map and checks the trie
// after every step.
type harness struct {
	t *testing.T
	// published versions and their models.
	versions []Map[*item]
	models   []map[string]*item
	// Every published array's contents as published, by its first
	// element.
	vals  map[**item][]*item
	nodes map[*node[*item]][]node[*item]
	// The open build: its base version, the model as built so far and
	// the hashes of the keys it touched.
	b       *Builder[*item]
	base    Map[*item]
	model   map[string]*item
	touched []uint64
	keys    []string
}

func newHarness(t *testing.T, m Map[*item], keys int) *harness {
	h := &harness{
		t: t, model: map[string]*item{},
		vals: make(map[**item][]*item), nodes: make(map[*node[*item]][]node[*item]),
	}
	for i := 0; i < keys; i++ {
		h.keys = append(h.keys, fmt.Sprintf("k%d", i))
	}
	h.publish(m)
	return h
}

// publish records m as a version and starts a build from it.
func (h *harness) publish(m Map[*item]) {
	h.versions = append(h.versions, m)
	model := make(map[string]*item, len(h.model))
	for k, v := range h.model {
		model[k] = v
	}
	h.models = append(h.models, model)
	var rec func(n *node[*item], shift uint)
	rec = func(n *node[*item], shift uint) {
		if n.vals != nil {
			h.vals[n.vals] = slices.Clone(n.valSlice(shift))
		}
		if n.nodes != nil {
			h.nodes[n.nodes] = slices.Clone(n.nodeSlice())
		}
		for i := range n.nodeSlice() {
			rec(&n.nodeSlice()[i], shift+bitsPerLevel)
		}
	}
	rec(&m.root, 0)
	h.base, h.b, h.touched = m, m.Edit(), nil
}

func (h *harness) put(k string, v int) {
	it := &item{k: k, v: v}
	_, had := h.model[k]
	if added := h.b.Put(it); added == had {
		h.t.Fatalf("Put(%s) reported added=%v, model had it: %v", k, added, had)
	}
	h.model[k] = it
	h.touched = append(h.touched, h.base.hash(k))
}

func (h *harness) del(k string) {
	_, had := h.model[k]
	if removed := h.b.Delete(k); removed != had {
		h.t.Fatalf("Delete(%s) = %v, model had it: %v", k, removed, had)
	}
	delete(h.model, k)
	h.touched = append(h.touched, h.base.hash(k))
}

// check runs every invariant against the open build and the published
// versions.
func (h *harness) check() {
	t := h.t
	t.Helper()
	cur := &h.b.m
	h.match(cur, h.model, "open build")
	h.shape(&cur.root, 0, 0, true)
	// No published array was written.
	for p, was := range h.vals {
		if !slices.Equal(unsafe.Slice(p, len(was)), was) {
			t.Fatalf("published value array %p written", p)
		}
	}
	for p, was := range h.nodes {
		for i, n := range unsafe.Slice(p, len(was)) {
			if o := was[i]; !n.same(&o) || n.tok != o.tok {
				t.Fatalf("published child array %p written at %d", p, i)
			}
		}
	}
	// Every array of the build is either its own or a published one.
	var own func(n *node[*item])
	own = func(n *node[*item]) {
		mine := n.tok == h.b.tok
		if n.vals != nil {
			if _, pub := h.vals[n.vals]; pub == mine {
				t.Fatalf("value array %p: published %v, this build's %v", n.vals, pub, mine)
			}
		}
		if n.nodes != nil {
			if _, pub := h.nodes[n.nodes]; pub == mine {
				t.Fatalf("child array %p: published %v, this build's %v", n.nodes, pub, mine)
			}
		}
		for i := range n.nodeSlice() {
			own(&n.nodeSlice()[i])
		}
	}
	own(&cur.root)
	// Subtrees no touched key hashes into are the base's.
	h.shared(&cur.root, &h.base.root, 0, h.touched)
}

// commit publishes the open build and checks every version.
func (h *harness) commit() {
	h.publish(h.b.Map())
	for i, v := range h.versions {
		h.match(&v, h.models[i], fmt.Sprintf("version %d", i))
	}
}

// match checks m's lookups, length and iteration against model.
func (h *harness) match(m *Map[*item], model map[string]*item, what string) {
	t := h.t
	t.Helper()
	for _, k := range h.keys {
		got, ok := m.Get(k)
		if want, wok := model[k]; ok != wok || got != want {
			t.Fatalf("%s: Get(%s) = %v %v, want %v %v", what, k, got, ok, want, wok)
		}
	}
	if m.Len() != len(model) {
		t.Fatalf("%s: Len = %d, model %d", what, m.Len(), len(model))
	}
	var seen []string
	m.Range(func(p **item) bool {
		it := *p
		if model[it.k] != it {
			t.Fatalf("%s: Range yielded %v, model has %v", what, it, model[it.k])
		}
		seen = append(seen, it.k)
		return true
	})
	sort.Strings(seen)
	for i := 1; i < len(seen); i++ {
		if seen[i] == seen[i-1] {
			t.Fatalf("%s: Range yielded %s twice", what, seen[i])
		}
	}
	if len(seen) != len(model) {
		t.Fatalf("%s: Range yielded %d values, model %d", what, len(seen), len(model))
	}
}

// shape checks n's structure: bitmaps agree with the arrays, every
// value sits where its hash says, collision nodes only below the last
// level, and no non-root node is empty or holds a lone value.
func (h *harness) shape(n *node[*item], shift uint, prefix uint64, root bool) {
	t := h.t
	pfx := func(hash uint64) uint64 {
		if shift >= 64 {
			return hash
		}
		return hash & (1<<shift - 1)
	}
	vals, kids := n.valSlice(shift), n.nodeSlice()
	if !root && n.nodemap == 0 && len(vals) < 2 {
		t.Fatalf("non-root node at shift %d holds %d values and no sub-node", shift, len(vals))
	}
	if (n.vals == nil) != (len(vals) == 0) || (n.nodes == nil) != (len(kids) == 0) {
		t.Fatalf("node at shift %d: array pointers disagree with its bitmaps", shift)
	}
	if shift >= 64 {
		if n.nodemap != 0 || n.nodes != nil {
			t.Fatal("collision node with sub-nodes")
		}
		for _, v := range vals {
			if h.base.hash(v.k) != prefix {
				t.Fatalf("collision node holds %s of another hash", v.k)
			}
		}
		return
	}
	if n.datamap&n.nodemap != 0 {
		t.Fatalf("node at shift %d: bitmaps %b/%b overlap", shift, n.datamap, n.nodemap)
	}
	for i, v := range vals {
		hash := h.base.hash(v.k)
		if pfx(hash) != prefix || slot(hash, shift) != bitAt(n.datamap, i) {
			t.Fatalf("value %s at the wrong slot", v.k)
		}
	}
	for i := range kids {
		s := uint64(bits.TrailingZeros32(bitAt(n.nodemap, i)))
		h.shape(&kids[i], shift+bitsPerLevel, prefix|s<<shift, false)
	}
}

// shared checks that every slot of n that no hash in touched reaches
// holds what old holds there: the same value, or the same node.
func (h *harness) shared(n, old *node[*item], shift uint, touched []uint64) {
	t := h.t
	if len(touched) == 0 {
		if !n.same(old) {
			t.Fatalf("untouched subtree at shift %d was copied", shift)
		}
		return
	}
	if shift >= 64 {
		return
	}
	for s := 0; s < 32; s++ {
		bit := uint32(1) << s
		var here []uint64
		for _, th := range touched {
			if slot(th, shift) == bit {
				here = append(here, th)
			}
		}
		switch {
		case len(here) > 0 && n.nodemap&bit != 0 && old.nodemap&bit != 0:
			h.shared(&n.nodeSlice()[index(n.nodemap, bit)], &old.nodeSlice()[index(old.nodemap, bit)], shift+bitsPerLevel, here)
		case len(here) > 0:
			// The slot changed kind or content; the build owns it.
		case n.datamap&bit != 0:
			if old.datamap&bit == 0 || n.valSlice(shift)[index(n.datamap, bit)] != old.valSlice(shift)[index(old.datamap, bit)] {
				t.Fatalf("untouched value slot %d at shift %d changed", s, shift)
			}
		case n.nodemap&bit != 0:
			if old.nodemap&bit == 0 || !n.nodeSlice()[index(n.nodemap, bit)].same(&old.nodeSlice()[index(old.nodemap, bit)]) {
				t.Fatalf("untouched node slot %d at shift %d changed", s, shift)
			}
		case old.datamap&bit != 0 || old.nodemap&bit != 0:
			t.Fatalf("untouched slot %d at shift %d emptied", s, shift)
		}
	}
}

// FuzzPersistentMap runs a script of puts, deletes, lookups and
// commits against a Go map. The first byte picks a hash mask (full,
// 10 bits, 5 bits, none), so prefix collisions and full-hash
// collisions both occur; each later pair of bytes is one step.
func FuzzPersistentMap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 6, 0, 3, 1, 6, 0})
	f.Add([]byte{3, 0, 1, 0, 2, 0, 3, 0, 4, 6, 0, 3, 2, 3, 1, 6, 0, 3, 3})
	f.Add([]byte{2, 0, 10, 0, 42, 0, 74, 1, 11, 6, 0, 4, 10, 4, 42, 7, 0, 6, 0, 0, 10})
	f.Add([]byte{1, 0, 5, 1, 6, 2, 7, 6, 0, 0, 5, 3, 6, 3, 7, 6, 0, 4, 5, 5, 5, 6, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 256 {
			return
		}
		masks := []uint64{^uint64(0), 0x3ff, 0x1f, 0}
		h := newHarness(t, newMasked(masks[int(script[0])%len(masks)]), 48)
		script = script[1:]
		for step := 0; len(script) >= 2; step++ {
			op, arg := script[0], script[1]
			script = script[2:]
			k := h.keys[int(arg)%len(h.keys)]
			switch op % 8 {
			case 0, 1, 2:
				h.put(k, step)
			case 3, 4:
				h.del(k)
			case 5:
				got, ok := h.b.Get(k)
				if want, wok := h.model[k]; ok != wok || got != want {
					t.Fatalf("Get(%s) = %v %v, want %v %v", k, got, ok, want, wok)
				}
			case 6:
				h.commit()
			case 7:
				// A put of every key in arg's low bits: a larger build.
				for i := 0; i < int(arg)%16; i++ {
					h.put(h.keys[(int(arg)+i*5)%len(h.keys)], step)
				}
			}
			h.check()
		}
		h.commit()
	})
}
