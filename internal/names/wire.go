package names

// Epoch wire codec: the replication unit of ROADMAP item 2.
//
// Epochs are immutable, versioned, and atomically published, which
// makes them the natural unit to stream to replica mediators: a full
// snapshot describes one epoch completely (tree, frozen lattice,
// frozen registry, guard-stack descriptor), and a delta describes the
// exact edit set that carried epoch v to epoch v+1 — derived by
// structural diff over the two immutable trees, which is cheap because
// the epoch publisher shares every untouched subtree between parent
// and successor (pointer equality prunes the walk to the changed
// spine). A snapshot is table-shaped (EpochWire: each distinct ACL and
// class once, then one row per node by parent index) and travels as
// line frames (snapframe.go); a delta is JSON.
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

	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/monitor"
	"secext/internal/principal"
)

// NodeWire is one node a delta upserts: its canonical path, kind, class
// label, textual ACL, and multilevel flag. Payloads do not replicate
// (see the package comment above).
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

// EpochWire is a full epoch snapshot in the epoch's own shape: the
// header fields, then tables, then one row per node. Every node's ACL
// and class are indexes into the ACLs and Classes tables, which list
// each distinct canonical ACL string and class label once, in order of
// first use. Rows are in depth-first pre-order (the Walk order), so
// every parent precedes its children and siblings appear in name
// order. EncodeSnapshot frames it for the wire and DecodeSnapshot
// rebuilds it; ApplyReplicated builds a tree from it.
type EpochWire struct {
	Version    uint64          `json:"version"`
	Traversal  bool            `json:"traversal"`
	Levels     []string        `json:"levels"`
	Categories []string        `json:"categories"`
	Stack      []string        `json:"stack"`
	ACLs       []string        `json:"acls"`
	Classes    []string        `json:"classes"`
	Principals []PrincipalWire `json:"principals"`
	Groups     []GroupWire     `json:"groups"`
	Rows       []RowWire       `json:"rows"`
}

// RowWire is one node of a snapshot: its parent's row index (-1 for the
// root, row 0), its component name ("" for the root), kind, ACL and
// class table indexes, and multilevel flag.
type RowWire struct {
	Name       string `json:"n"`
	Parent     int32  `json:"p"`
	ACL        uint32 `json:"a"`
	Class      uint32 `json:"c"`
	Kind       uint8  `json:"k"`
	Multilevel bool   `json:"ml,omitempty"`
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

// decodeNode rebuilds a delta's node against the receiver's frozen
// lattice. The node has no payload and no children (the patcher fills
// those in). The path is interned and the ACL canonicalized by the
// receiving server's tables, so replayed nodes share strings and ACL
// values with the rest of the replica's tree.
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

// registryDelta lists what next's registry adds to prev's (nil: an
// empty registry): the principals from prev's ID count upward, in
// dense-ID order, and the new or changed groups with their full
// direct-member lists, in name order. Its cost follows the change, not
// the registry: principal IDs are append-only, and group records are
// copy-on-write (see principal.Frozen.ChangedGroups).
func registryDelta(prev, next *principal.Frozen, lat *lattice.Frozen) ([]PrincipalWire, []GroupWire, error) {
	from := 0
	if prev != nil {
		from = prev.NumPrincipalIDs()
	}
	var prins []PrincipalWire
	for _, p := range next.PrincipalsFrom(from) {
		label, err := lat.Format(p.Class())
		if err != nil {
			return nil, nil, fmt.Errorf("names: wire-encode principal %s: %w", p.SubjectName(), err)
		}
		prins = append(prins, PrincipalWire{Name: p.SubjectName(), Class: label})
	}
	var groups []GroupWire
	for _, g := range next.ChangedGroups(prev) {
		members, err := next.Members(g)
		if err != nil {
			return nil, nil, err
		}
		groups = append(groups, GroupWire{Name: g, Members: members})
	}
	return prins, groups, nil
}

// WireSnapshot encodes the epoch as a full snapshot. ACLs and classes
// are tabled by pointer first (nodes share canonical values) and by
// text second, so each distinct ACL string and class label is rendered
// and listed once.
func (ep *Epoch) WireSnapshot() (*EpochWire, error) {
	w := &EpochWire{
		Version:    ep.version,
		Traversal:  ep.traversal,
		Levels:     ep.lat.Levels(),
		Categories: ep.lat.Categories(),
		Stack:      ep.stack.Guards(),
		ACLs:       []string{},
		Classes:    []string{},
		Rows:       make([]RowWire, 0, ep.Size()),
	}
	if ep.reg != nil {
		prins, groups, err := registryDelta(nil, ep.reg, ep.lat)
		if err != nil {
			return nil, err
		}
		w.Principals, w.Groups = prins, groups
	}
	aclByPtr := make(map[*acl.ACL]uint32)
	aclByText := make(map[string]uint32)
	classByPtr := make(map[*lattice.Class]uint32)
	classByText := make(map[string]uint32)
	var visit func(n *Node, parent int32) error
	visit = func(n *Node, parent int32) error {
		ai, ok := aclByPtr[n.acl]
		if !ok {
			text := n.acl.String()
			if ai, ok = aclByText[text]; !ok {
				ai = uint32(len(w.ACLs))
				w.ACLs = append(w.ACLs, text)
				aclByText[text] = ai
			}
			aclByPtr[n.acl] = ai
		}
		ci, ok := classByPtr[n.class]
		if !ok {
			label, err := ep.lat.Format(*n.class)
			if err != nil {
				return fmt.Errorf("names: wire-encode %s: %w", n.path, err)
			}
			if ci, ok = classByText[label]; !ok {
				ci = uint32(len(w.Classes))
				w.Classes = append(w.Classes, label)
				classByText[label] = ci
			}
			classByPtr[n.class] = ci
		}
		row := int32(len(w.Rows))
		w.Rows = append(w.Rows, RowWire{
			Parent:     parent,
			Name:       nameOf(n.path),
			Kind:       uint8(n.kind),
			Multilevel: n.multilevel,
			ACL:        ai,
			Class:      ci,
		})
		for _, cr := range n.children {
			if err := visit(cr.node, row); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(ep.root, -1); err != nil {
		return nil, err
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
// the epoch publisher shares every untouched subtree, so the walk
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
	// A shared frozen registry means no principal or group moved.
	if next.reg != nil && next.reg != prev.reg {
		if d.Principals, d.Groups, err = registryDelta(prev.reg, next.reg, next.lat); err != nil {
			return nil, err
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

// buildSnapshotTree builds a full tree from a snapshot. Each table
// entry is parsed and canonicalized once; rows attach to their parent
// by index, with the in-place appendChild (legal because this build
// allocated every node) and the path interned as parent path + "/" +
// name. Nothing is trusted: a snapshot that is not exactly what
// WireSnapshot would emit for some tree fails here, before anything is
// published. The checks: every table entry is in canonical form,
// distinct, and first used in table order; the root comes first and
// only there; each row's parent is an earlier row on the path to the
// row before it (so rows are in pre-order) and is not a leaf; names
// are valid components in strictly increasing order among siblings;
// kinds and indexes are in range.
func buildSnapshotTree(w *EpochWire, lat *lattice.Frozen, in *interner, canon *aclCanon, classes *classCanon) (*Node, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: snapshot %s", ErrBadPath, fmt.Sprintf(format, args...))
	}
	acls := make([]*acl.ACL, len(w.ACLs))
	seen := make(map[string]bool, len(w.ACLs)+len(w.Classes))
	for i, text := range w.ACLs {
		a, err := acl.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("names: snapshot ACL %d: %w", i, err)
		}
		if a.String() != text || seen[text] {
			return nil, bad("ACL %d %q is not canonical or not distinct", i, text)
		}
		seen[text] = true
		acls[i] = canon.canon(a)
	}
	clear(seen)
	cls := make([]*lattice.Class, len(w.Classes))
	for i, label := range w.Classes {
		c, err := lat.ParseClass(label)
		if err != nil {
			return nil, fmt.Errorf("names: snapshot class %d: %w", i, err)
		}
		if again, err := lat.Format(c); err != nil || again != label || seen[label] {
			return nil, bad("class %d %q is not canonical or not distinct", i, label)
		}
		seen[label] = true
		cls[i] = classes.canon(c)
	}
	if len(w.Rows) == 0 || w.Rows[0].Parent != -1 || w.Rows[0].Name != "" || Kind(w.Rows[0].Kind) != KindRoot {
		return nil, bad("must begin with the root")
	}
	in.reserve(len(w.Rows))
	nodes := make([]*Node, len(w.Rows))
	// open is the path from the root to the previous row, as row
	// indexes: a pre-order row's parent is always on it.
	open := make([]int32, 0, 16)
	var nextACL, nextClass uint32
	for i, r := range w.Rows {
		kind := Kind(r.Kind)
		switch {
		case r.Kind >= numKinds:
			return nil, bad("row %d has unknown kind %d", i, r.Kind)
		case i > 0 && kind == KindRoot:
			return nil, bad("row %d is a second root", i)
		case r.ACL > nextACL || r.ACL >= uint32(len(acls)):
			return nil, bad("row %d ACL index %d out of order or range", i, r.ACL)
		case r.Class > nextClass || r.Class >= uint32(len(cls)):
			return nil, bad("row %d class index %d out of order or range", i, r.Class)
		case r.Multilevel && kind.Leaf():
			return nil, bad("row %d is a multilevel leaf", i)
		}
		if r.ACL == nextACL {
			nextACL++
		}
		if r.Class == nextClass {
			nextClass++
		}
		n := &Node{kind: kind, multilevel: r.Multilevel, acl: acls[r.ACL], class: cls[r.Class]}
		nodes[i] = n
		if i == 0 {
			n.path = in.intern("/")
			open = append(open, 0)
			continue
		}
		for len(open) > 0 && open[len(open)-1] > r.Parent {
			open = open[:len(open)-1]
		}
		if len(open) == 0 || open[len(open)-1] != r.Parent {
			return nil, bad("row %d parent %d is not an open ancestor", i, r.Parent)
		}
		parent := nodes[r.Parent]
		if parent.kind.Leaf() {
			return nil, bad("row %d parent %s is a leaf", i, parent.path)
		}
		if err := ValidComponent(r.Name); err != nil {
			return nil, err
		}
		if k := len(parent.children); k > 0 && parent.children[k-1].name() >= r.Name {
			return nil, bad("row %d name %q out of sibling order under %s", i, r.Name, parent.path)
		}
		if parent.path == "/" {
			n.path = in.intern("/" + r.Name)
		} else {
			n.path = in.intern(parent.path + "/" + r.Name)
		}
		appendChild(parent, n)
		open = append(open, int32(i))
	}
	if nextACL != uint32(len(acls)) || nextClass != uint32(len(cls)) {
		return nil, bad("tables list %d ACLs and %d classes, rows use %d and %d", len(acls), len(cls), nextACL, nextClass)
	}
	return nodes[0], nil
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

// SnapshotTree is a snapshot's tree, built and checked against one
// server's lattice and intern tables but not yet published;
// ApplyReplicated installs it. Building takes no server lock, so a
// replica builds the tree while it replays the registry.
type SnapshotTree struct {
	srv  *Server
	root *Node
}

// BuildSnapshot builds w's tree for a later ApplyReplicated on s. It
// fails unless w is exactly what WireSnapshot emits for some tree (see
// buildSnapshotTree).
func (s *Server) BuildSnapshot(w *EpochWire) (*SnapshotTree, error) {
	root, err := buildSnapshotTree(w, s.lat.Freeze(), &s.strings, &s.acls, &s.classes)
	if err != nil {
		return nil, err
	}
	return &SnapshotTree{srv: s, root: root}, nil
}

// ReplicaApply is one replicated epoch installation: either a full
// snapshot tree (Snapshot non-nil) or a tree patch, plus an optional stack
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
	Snapshot       *SnapshotTree
	Upserts        []NodeWire
	Deletes        []string
	Stack          *monitor.Stack
}

// ApplyReplicated installs a replicated epoch transition: one atomic
// publication, journaled with a replication kind and
// the primary version it mirrors. The replica's own version counter
// advances as usual (local bootstrap publications mean the numbers
// differ from the primary's); the journal record ties the two clocks
// together.
func (s *Server) ApplyReplicated(app ReplicaApply) (uint64, error) {
	if app.PrimaryVersion == 0 {
		return 0, fmt.Errorf("names: replicated apply requires a primary version")
	}
	if app.Snapshot != nil && app.Snapshot.srv != s {
		return 0, fmt.Errorf("names: snapshot tree was built for another server")
	}
	lat := s.lat.Freeze()
	kind := app.Kind
	if kind == "" {
		kind = "replica"
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur := s.epoch.Load()
	root := cur.root
	var err error
	if app.Snapshot != nil {
		root = app.Snapshot.root
	} else if len(app.Upserts) > 0 || len(app.Deletes) > 0 {
		root, err = patchWireTree(cur.root, app.Upserts, app.Deletes, lat, &s.strings, &s.acls, &s.classes)
	}
	if err != nil {
		return 0, err
	}
	shards := shardNames
	if app.Stack != nil {
		shards |= shardStack
	}
	return s.publishLocked(shards, kind, app.PrimaryVersion, func(e *Epoch) {
		e.root = root
		e.traversal = app.Traversal
		if app.Stack != nil {
			e.stack = app.Stack
		}
	}), nil
}
