package names

import (
	"sort"
	"strings"
)

// Compact structure-sharing child layout.
//
// A node's children are a name-sorted []childRef. The slice replaces
// the PR-4 map[string]*Node representation, which at million-node scale
// paid a map header plus bucket array per directory and an O(children)
// re-insertion on every copy-on-write spine clone. The slice layout
// restores the memory economics the epoch design wants:
//
//   - a spine clone shares the children slice wholesale with the parent
//     epoch (the Node shallow copy carries the slice header); only the
//     level actually edited pays ONE exact-size allocation (withChild /
//     withoutChild below);
//   - lookup is a binary search over an inline pointer array — no
//     hashing, no bucket pointers, cache-linear for the fan-outs real
//     trees have;
//   - iteration is already in lexicographic name order, so Walk, List,
//     and the wire codec are deterministic without sorting and without
//     allocating a name slice per directory.
//
// Invariants: children are strictly sorted by component name with no
// duplicates. Slices reachable from a published epoch are never mutated
// — withChild and withoutChild return fresh exact-capacity slices, and
// appendChild (which does mutate) is only legal on nodes allocated by
// the same working-tree build.

// childRef is one directory entry. It is a single pointer: the entry's
// name is the final component of the child's canonical path (nameOf),
// derived on demand rather than stored, so a directory of k children
// costs exactly k words. Deriving the name is one byte scan over the
// path tail with no allocation; siblings share their parent prefix, so
// sorting by component name is sorting by path and the invariant needs
// no second field to maintain.
type childRef struct {
	node *Node
}

// name returns the entry's component name, carved out of the child's
// path.
func (cr childRef) name() string { return nameOf(cr.node.path) }

// findChild returns the index at which name is (or would be inserted
// in) kids, and whether it is present.
func findChild(kids []childRef, name string) (int, bool) {
	i := sort.Search(len(kids), func(i int) bool { return kids[i].name() >= name })
	return i, i < len(kids) && kids[i].name() == name
}

// child returns the node bound to name under n, or nil.
func (n *Node) child(name string) *Node {
	if i, ok := findChild(n.children, name); ok {
		return n.children[i].node
	}
	return nil
}

// pairChildren matches two sorted child lists in one merge pass —
// O(len(prev)+len(next)) with no per-sibling search — calling fn(o, n)
// once per name: o is nil for a name only in next, n is nil for a name
// only in prev. A successor's spine level usually shares all but one
// child pointer with its parent's, and equal pointers pair without a
// name comparison.
func pairChildren(prev, next []childRef, fn func(o, n *Node)) {
	i, j := 0, 0
	for i < len(prev) && j < len(next) {
		o, n := prev[i].node, next[j].node
		c := 0
		if o != n {
			c = strings.Compare(prev[i].name(), next[j].name())
		}
		switch {
		case c < 0:
			fn(o, nil)
			i++
		case c > 0:
			fn(nil, n)
			j++
		default:
			fn(o, n)
			i++
			j++
		}
	}
	for ; i < len(prev); i++ {
		fn(prev[i].node, nil)
	}
	for ; j < len(next); j++ {
		fn(nil, next[j].node)
	}
}

// withChild returns a copy of kids with name bound to node — insert or
// replace, one exact-size allocation either way. node's path must end
// in name (every caller builds it that way). kids is not modified.
func withChild(kids []childRef, name string, node *Node) []childRef {
	i, ok := findChild(kids, name)
	if ok {
		out := make([]childRef, len(kids))
		copy(out, kids)
		out[i].node = node
		return out
	}
	out := make([]childRef, len(kids)+1)
	copy(out, kids[:i])
	out[i] = childRef{node: node}
	copy(out[i+1:], kids[i:])
	return out
}

// withoutChild returns a copy of kids without name (kids itself when
// the name is absent, nil when the last entry is removed). kids is not
// modified.
func withoutChild(kids []childRef, name string) []childRef {
	i, ok := findChild(kids, name)
	if !ok {
		return kids
	}
	if len(kids) == 1 {
		return nil
	}
	out := make([]childRef, len(kids)-1)
	copy(out, kids[:i])
	copy(out[i:], kids[i+1:])
	return out
}

// appendChild binds c under n IN PLACE, keyed by c's own component
// name. It is only legal on working trees whose nodes were all
// allocated by the current build (wire decode, bulk subtree bind):
// published slices are shared across epochs and must never be appended
// to. Pre-sorted input (the Walk pre-order every encoder emits) appends
// in amortized O(1); out-of-order names fall back to an insertion
// shift.
func appendChild(n *Node, c *Node) {
	name := nameOf(c.path)
	if k := len(n.children); k == 0 || n.children[k-1].name() < name {
		n.children = append(n.children, childRef{node: c})
		return
	}
	i, ok := findChild(n.children, name)
	if ok {
		n.children[i].node = c
		return
	}
	n.children = append(n.children, childRef{})
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = childRef{node: c}
}
