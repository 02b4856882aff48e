package names

// Epoch wire codec: the replication unit of ROADMAP item 2.
//
// Epochs are immutable, versioned, and atomically published, which
// makes them the natural unit to stream to replica mediators: a full
// snapshot describes one epoch completely (tree, frozen lattice,
// frozen registry, guard-stack descriptor), and a delta describes the
// exact edit set that carried epoch v to epoch v+1 — derived by
// structural diff over the two immutable trees, which is cheap because
// the batch publisher shares every untouched subtree between parent
// and successor (pointer equality prunes the walk to the changed
// spine).
//
// The codec deliberately serializes *protection state only*. Payloads
// (service implementations, file handles) are data plane and never
// cross the wire: a replica answers access checks against the
// replicated policy, it does not serve the primary's data. Classes
// travel as labels and are re-parsed against the receiver's lattice;
// ACLs travel in their textual form (acl.String / acl.Parse round-trip
// exactly); guard stacks travel as ordered guard names and are rebuilt
// from registered constructors on the replica, so a stack containing
// an unknown or stateful guard fails the subscription instead of
// silently weakening policy.

import (
	"fmt"
	"sort"

	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/monitor"
)

// NodeWire is one name-space node in transit: its canonical path, kind,
// class label, textual ACL, and multilevel flag. Payloads do not
// replicate (see the package comment above).
type NodeWire struct {
	Path       string `json:"path"`
	Kind       uint8  `json:"kind"`
	Class      string `json:"class"`
	ACL        string `json:"acl"`
	Multilevel bool   `json:"ml,omitempty"`
}

// PrincipalWire is one registered principal. Principals are listed in
// dense-ID order so a replica replaying them assigns identical IDs —
// the compiled bitsets it rebuilds locally then index the same way the
// primary's do.
type PrincipalWire struct {
	Name  string `json:"name"`
	Class string `json:"class"`
}

// GroupWire is one group with its full direct-member list, in
// principal.Frozen.Members form (subgroups are "@"-prefixed). Deltas
// carry changed groups wholesale: direct-member lists are small and a
// full list makes the apply idempotent.
type GroupWire struct {
	Name    string   `json:"name"`
	Members []string `json:"members"`
}

// EpochWire is a full epoch snapshot: everything a replica needs to
// rebuild the policy from nothing. Nodes are in depth-first pre-order
// (the Walk order), so every parent precedes its children.
type EpochWire struct {
	Version    uint64          `json:"version"`
	Traversal  bool            `json:"traversal"`
	Levels     []string        `json:"levels"`
	Categories []string        `json:"categories"`
	Principals []PrincipalWire `json:"principals"`
	Groups     []GroupWire     `json:"groups"`
	Stack      []string        `json:"stack"`
	Nodes      []NodeWire      `json:"nodes"`
}

// EpochDelta is the edit set carrying epoch From to epoch Version. The
// lattice and registry shards are append-only (no level, category,
// principal, or group is ever removed), so their deltas are pure
// additions plus changed-group member lists; the tree delta is upserts
// (pre-order: parents before children) and subtree deletes. A nil
// Stack means the guard stack did not change.
type EpochDelta struct {
	From      uint64 `json:"from"`
	Version   uint64 `json:"version"`
	Traversal bool   `json:"traversal"`

	Levels     []string        `json:"levels,omitempty"`
	Categories []string        `json:"categories,omitempty"`
	Principals []PrincipalWire `json:"principals,omitempty"`
	Groups     []GroupWire     `json:"groups,omitempty"`
	Stack      []string        `json:"stack,omitempty"`

	Upserts []NodeWire `json:"upserts,omitempty"`
	Deletes []string   `json:"deletes,omitempty"`
}

// encodeNode renders one node for the wire, formatting its class
// against the epoch's own frozen lattice.
func encodeNode(n *Node, lat *lattice.Frozen) (NodeWire, error) {
	label, err := lat.Format(*n.class)
	if err != nil {
		return NodeWire{}, fmt.Errorf("names: wire-encode %s: %w", n.path, err)
	}
	return NodeWire{
		Path:       n.path,
		Kind:       uint8(n.kind),
		Class:      label,
		ACL:        n.acl.String(),
		Multilevel: n.multilevel,
	}, nil
}

// decodeNode rebuilds a node from the wire against the receiver's
// frozen lattice. The node has no payload and no children (the patcher
// fills those in). The path is interned and the ACL canonicalized by
// the receiving server's tables, so a replica bootstrapping a
// million-node snapshot shares strings across re-bootstraps and ACL
// values across nodes exactly as the primary does; in is nil-safe and
// canon is nil-safe for contexts without a server.
func decodeNode(w NodeWire, lat *lattice.Frozen, in *interner, canon *aclCanon, classes *classCanon) (*Node, error) {
	if err := ValidPath(w.Path); err != nil {
		return nil, err
	}
	if w.Kind >= numKinds {
		return nil, fmt.Errorf("%w: wire node %s has unknown kind %d", ErrBadPath, w.Path, w.Kind)
	}
	kind := Kind(w.Kind)
	class, err := lat.ParseClass(w.Class)
	if err != nil {
		return nil, fmt.Errorf("names: wire-decode %s: %w", w.Path, err)
	}
	a, err := acl.Parse(w.ACL)
	if err != nil {
		return nil, fmt.Errorf("names: wire-decode %s: %w", w.Path, err)
	}
	path := in.intern(w.Path)
	n := &Node{
		path:       path,
		kind:       kind,
		acl:        canon.canon(a),
		class:      classes.canon(class),
		multilevel: w.Multilevel && !kind.Leaf(),
	}
	return n, nil
}

// registryWire flattens the epoch's frozen registry in dense-ID order.
func registryWire(ep *Epoch) ([]PrincipalWire, []GroupWire, error) {
	if ep.reg == nil {
		return nil, nil, nil
	}
	names := ep.reg.Principals()
	type idp struct {
		id   int
		name string
	}
	byID := make([]idp, 0, len(names))
	for _, name := range names {
		p, err := ep.reg.Principal(name)
		if err != nil {
			return nil, nil, err
		}
		byID = append(byID, idp{p.ID(), name})
	}
	sort.Slice(byID, func(i, j int) bool { return byID[i].id < byID[j].id })
	prins := make([]PrincipalWire, 0, len(byID))
	for _, e := range byID {
		p, err := ep.reg.Principal(e.name)
		if err != nil {
			return nil, nil, err
		}
		label, err := ep.lat.Format(p.Class())
		if err != nil {
			return nil, nil, fmt.Errorf("names: wire-encode principal %s: %w", e.name, err)
		}
		prins = append(prins, PrincipalWire{Name: e.name, Class: label})
	}
	var groups []GroupWire
	for _, g := range ep.reg.Groups() {
		members, err := ep.reg.Members(g)
		if err != nil {
			return nil, nil, err
		}
		groups = append(groups, GroupWire{Name: g, Members: members})
	}
	return prins, groups, nil
}

// WireSnapshot encodes the epoch as a full snapshot.
func (ep *Epoch) WireSnapshot() (*EpochWire, error) {
	w := &EpochWire{
		Version:    ep.version,
		Traversal:  ep.traversal,
		Levels:     ep.lat.Levels(),
		Categories: ep.lat.Categories(),
		Stack:      ep.stack.Guards(),
	}
	prins, groups, err := registryWire(ep)
	if err != nil {
		return nil, err
	}
	w.Principals, w.Groups = prins, groups
	var werr error
	ep.Walk(func(path string, n *Node) {
		if werr != nil {
			return
		}
		nw, err := encodeNode(n, ep.lat)
		if err != nil {
			werr = err
			return
		}
		w.Nodes = append(w.Nodes, nw)
	})
	if werr != nil {
		return nil, werr
	}
	return w, nil
}

// appendSuffix returns the entries of next beyond prev, verifying prev
// is a strict prefix (the shard is append-only; anything else means
// the two epochs do not share a history).
func appendSuffix(kind string, prev, next []string) ([]string, error) {
	if len(next) < len(prev) {
		return nil, fmt.Errorf("names: %s shard shrank between epochs", kind)
	}
	for i := range prev {
		if prev[i] != next[i] {
			return nil, fmt.Errorf("names: %s shard rewrote entry %d between epochs", kind, i)
		}
	}
	return next[len(prev):], nil
}

// sameStrings reports element-wise equality.
func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// contentDiffers reports whether two same-named nodes differ in
// protection-relevant content. Payloads are excluded (they do not
// replicate), and ACLs compare by pointer: spine clones share the ACL
// pointer, while every real ACL edit installs a fresh clone, so a
// pointer mismatch is exactly "this node's ACL was edited" (at worst a
// semantically equal re-install, which re-encodes harmlessly).
func contentDiffers(prev, next *Node) bool {
	return prev.kind != next.kind ||
		prev.multilevel != next.multilevel ||
		prev.acl != next.acl ||
		!prev.class.Equal(*next.class)
}

// upsertSubtree emits the whole subtree rooted at n, pre-order.
func upsertSubtree(n *Node, lat *lattice.Frozen, out *[]NodeWire) error {
	w, err := encodeNode(n, lat)
	if err != nil {
		return err
	}
	*out = append(*out, w)
	for _, cr := range n.children {
		if err := upsertSubtree(cr.node, lat, out); err != nil {
			return err
		}
	}
	return nil
}

// diffTree walks matched subtrees of the parent and successor epochs,
// emitting upserts and deletes. Pointer-equal subtrees are pruned —
// the batch publisher shares every untouched subtree, so the walk
// visits only the cloned spine plus the actual edits. A node's own
// deletes follow its children's, in name order.
func diffTree(prev, next *Node, lat *lattice.Frozen, d *EpochDelta) error {
	if prev == next {
		return nil
	}
	if contentDiffers(prev, next) {
		w, err := encodeNode(next, lat)
		if err != nil {
			return err
		}
		d.Upserts = append(d.Upserts, w)
	}
	var err error
	var deletes []string
	pairChildren(prev.children, next.children, func(pc, nc *Node) {
		switch {
		case err != nil:
		case nc == nil:
			deletes = append(deletes, Join(next.path, pc.Name()))
		case pc == nil:
			err = upsertSubtree(nc, lat, &d.Upserts)
		default:
			err = diffTree(pc, nc, lat, d)
		}
	})
	d.Deletes = append(d.Deletes, deletes...)
	return err
}

// DiffEpochs derives the wire delta that carries prev to next. It is
// the encoding half of the replication contract: applying the decoded
// delta to a faithful copy of prev yields a policy equal to next
// (tree, lattice, registry, stack — payloads excepted), which
// FuzzEpochDeltaCodec proves by deep comparison. Both epochs must come
// from the same server history (next derived from prev by
// publications); diffing unrelated epochs fails on the append-only
// shard checks.
func DiffEpochs(prev, next *Epoch) (*EpochDelta, error) {
	if next.version < prev.version {
		return nil, fmt.Errorf("names: delta target v%d older than base v%d", next.version, prev.version)
	}
	d := &EpochDelta{From: prev.version, Version: next.version, Traversal: next.traversal}
	var err error
	if d.Levels, err = appendSuffix("lattice level", prev.lat.Levels(), next.lat.Levels()); err != nil {
		return nil, err
	}
	if d.Categories, err = appendSuffix("lattice category", prev.lat.Categories(), next.lat.Categories()); err != nil {
		return nil, err
	}
	// A shared frozen registry means no principal or group moved, so
	// an ACL-only delta skips flattening the registry.
	if next.reg != nil && next.reg != prev.reg {
		prins, groups, err := registryWire(next)
		if err != nil {
			return nil, err
		}
		for _, p := range prins {
			if prev.reg == nil || !prev.reg.HasPrincipal(p.Name) {
				d.Principals = append(d.Principals, p)
			}
		}
		for _, g := range groups {
			if prev.reg == nil || !prev.reg.HasGroup(g.Name) {
				d.Groups = append(d.Groups, g)
				continue
			}
			prevMembers, err := prev.reg.Members(g.Name)
			if err != nil {
				return nil, err
			}
			if !sameStrings(prevMembers, g.Members) {
				d.Groups = append(d.Groups, g)
			}
		}
	}
	if !sameStrings(prev.stack.Guards(), next.stack.Guards()) {
		d.Stack = next.stack.Guards()
	}
	if err := diffTree(prev.root, next.root, next.lat, d); err != nil {
		return nil, err
	}
	return d, nil
}

// lookupWire finds the node at path in a working (unpublished) tree,
// or nil. Used by the patcher only; it assumes a validated path.
func lookupWire(root *Node, path string) *Node {
	if path == "/" {
		return root
	}
	parts, err := SplitPath(path)
	if err != nil {
		return nil
	}
	cur := root
	for _, p := range parts {
		next := cur.child(p)
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

// buildWireTree rebuilds a full tree from pre-ordered snapshot nodes.
// Every node here is freshly allocated by this build, so the in-place
// appendChild is legal; snapshot order is the Walk pre-order, which
// appends children in sorted order without shifting.
func buildWireTree(nodes []NodeWire, lat *lattice.Frozen, in *interner, canon *aclCanon, classes *classCanon) (*Node, error) {
	if len(nodes) == 0 || nodes[0].Path != "/" {
		return nil, fmt.Errorf("%w: snapshot must begin at the root", ErrBadPath)
	}
	root, err := decodeNode(nodes[0], lat, in, canon, classes)
	if err != nil {
		return nil, err
	}
	if root.kind != KindRoot {
		return nil, fmt.Errorf("%w: snapshot root has kind %s", ErrBadPath, root.kind)
	}
	for _, w := range nodes[1:] {
		n, err := decodeNode(w, lat, in, canon, classes)
		if err != nil {
			return nil, err
		}
		parent := lookupWire(root, parentOf(w.Path))
		if parent == nil || parent.kind.Leaf() {
			return nil, fmt.Errorf("%w: snapshot node %s has no parent", ErrBadPath, w.Path)
		}
		appendChild(parent, n)
	}
	return root, nil
}

// patchWireTree applies a delta's deletes then upserts to root,
// returning the successor root. Deletes remove whole subtrees (a
// rename encodes as delete + re-upsert); an upsert of an existing path
// replaces the node's content and keeps its children, an upsert of a
// new path creates the node (its parent must already exist — deltas
// list parents before children).
func patchWireTree(root *Node, upserts []NodeWire, deletes []string, lat *lattice.Frozen, in *interner, canon *aclCanon, classes *classCanon) (*Node, error) {
	for _, path := range deletes {
		parts, err := SplitPath(path)
		if err != nil {
			return nil, err
		}
		if len(parts) == 0 {
			return nil, ErrRoot
		}
		if lookupWire(root, path) == nil {
			return nil, fmt.Errorf("%w: delta deletes unknown path %s", ErrNotFound, path)
		}
		root = rebind(root, parts, nil)
	}
	for _, w := range upserts {
		n, err := decodeNode(w, lat, in, canon, classes)
		if err != nil {
			return nil, err
		}
		if w.Path == "/" {
			// Root content change: keep the children, swap the rest.
			n.children = root.children
			root = n
			continue
		}
		if old := lookupWire(root, w.Path); old != nil {
			if old.kind.Leaf() == n.kind.Leaf() && !n.kind.Leaf() {
				n.children = old.children
			}
			// A replicated node keeps whatever payload the replica has
			// locally bound (none, normally): payloads are data plane.
			n.payload = old.payload
		}
		parent := lookupWire(root, parentOf(w.Path))
		if parent == nil || parent.kind.Leaf() {
			return nil, fmt.Errorf("%w: delta upsert %s has no parent", ErrNotFound, w.Path)
		}
		parts, err := SplitPath(w.Path)
		if err != nil {
			return nil, err
		}
		root = rebind(root, parts, n)
	}
	return root, nil
}

// ReplicaApply is one replicated epoch installation: either a full
// snapshot tree (Full non-nil) or a tree patch, plus an optional stack
// swap. PrimaryVersion stamps the journal record so lag is auditable;
// Kind defaults to "replica" ("replica-stale" marks a fail-closed
// installation). The lattice and registry shards are NOT part of this
// call: the replica replays those through the ordinary Define/Add
// entry points first (they are append-only, so the intermediate epochs
// stay consistent), then installs the tree and stack atomically.
type ReplicaApply struct {
	PrimaryVersion uint64
	Kind           string
	Traversal      bool
	Full           []NodeWire
	Upserts        []NodeWire
	Deletes        []string
	Stack          *monitor.Stack
}

// ApplyReplicated installs a replicated epoch transition: one staged
// batch, one atomic publication, journaled with a replication kind and
// the primary version it mirrors. The replica's own version counter
// advances as usual (local bootstrap publications mean the numbers
// differ from the primary's); the journal record ties the two clocks
// together.
func (s *Server) ApplyReplicated(app ReplicaApply) (uint64, error) {
	if app.PrimaryVersion == 0 {
		return 0, fmt.Errorf("names: replicated apply requires a primary version")
	}
	lat := s.lat.Freeze()
	kind := app.Kind
	if kind == "" {
		kind = "replica"
	}
	s.writeMu.Lock()
	cur := s.currentLocked()
	root := cur.root
	var err error
	if app.Full != nil {
		root, err = buildWireTree(app.Full, lat, &s.strings, &s.acls, &s.classes)
	} else if len(app.Upserts) > 0 || len(app.Deletes) > 0 {
		root, err = patchWireTree(cur.root, app.Upserts, app.Deletes, lat, &s.strings, &s.acls, &s.classes)
	}
	if err != nil {
		s.writeMu.Unlock()
		return 0, err
	}
	shards := shardNames
	if app.Stack != nil {
		shards |= shardStack
	}
	b := s.stageLocked(shards, func(e *Epoch) {
		e.root = root
		e.traversal = app.Traversal
		if app.Stack != nil {
			e.stack = app.Stack
		}
	})
	b.replicaKind, b.replicaVersion = kind, app.PrimaryVersion
	s.writeMu.Unlock()
	return s.waiter(b)(), nil
}
