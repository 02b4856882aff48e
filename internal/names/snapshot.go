package names

// This file holds the copy-on-write tree machinery behind epoch
// publication: spine cloning, rebinding, and subtree relocation. The
// pinned-version type itself is Epoch (see epoch.go).

// clone returns a shallow copy of n. The copy shares the children
// slice, ACL, class, payload, and grandchildren with the original —
// all immutable or replaced wholesale by rebind, which installs a
// fresh slice at the one level it edits — so cloning a spine level is
// a single Node allocation.
func (n *Node) clone() *Node {
	c := *n
	return &c
}

// rebind returns a new tree equal to root except that the binding at
// parts is replaced by repl; a nil repl removes the binding. Only the
// spine from the root to the target is cloned — every untouched
// subtree (and every untouched sibling ref within the cloned levels)
// is shared with the old tree; each cloned level costs one Node plus
// one exact-size children slice. With empty parts the replacement IS
// the new root. The caller guarantees every interior component of
// parts exists (the final one need not: that is how new bindings are
// inserted).
func rebind(root *Node, parts []string, repl *Node) *Node {
	if len(parts) == 0 {
		return repl
	}
	out := *root
	name := parts[0]
	if len(parts) == 1 {
		if repl == nil {
			out.children = withoutChild(root.children, name)
		} else {
			out.children = withChild(root.children, name, repl)
		}
		return &out
	}
	out.children = withChild(root.children, name, rebind(root.child(name), parts[1:], repl))
	return &out
}

// relocate deep-copies the subtree rooted at n under a new absolute
// path, rewriting the stored path of every descendant. Rename pays
// this O(subtree) copy so published nodes never change: a reader
// holding the pre-rename epoch keeps seeing the old paths. The fresh
// paths go through the server's interner (a rename round-trip re-keys
// onto the original allocations) and each node's name is carved out of
// its interned path, so the copy duplicates no component strings.
func relocate(n *Node, path string, in *interner) *Node {
	c := *n
	c.path = in.intern(path)
	if len(n.children) > 0 {
		kids := make([]childRef, len(n.children))
		for i, cr := range n.children {
			child := relocate(cr.node, Join(path, cr.name()), in)
			kids[i] = childRef{node: child}
		}
		c.children = kids
	}
	return &c
}
