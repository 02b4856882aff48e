package names

// Epoch wire codec: the replication unit of ROADMAP item 2.
//
// Epochs are immutable, versioned, and atomically published, which
// makes them the natural unit to stream to replica mediators. One
// message type, EpochWire, carries every transition: the policy change
// from a base epoch From to epoch Version. A snapshot is the message
// from the empty epoch (From 0); a delta is the message from the
// epoch before. Both are derived by structural diff over the two
// immutable trees, which is cheap because the epoch publisher shares
// every untouched subtree between parent and successor (pointer
// equality prunes the walk to the changed spine). Both travel as the
// same line frames (snapframe.go), and a receiver checks and installs
// both with the same code: BuildEpoch, then ApplyReplicated.
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
	"slices"
	"strings"

	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/monitor"
	"secext/internal/principal"
)

// PrincipalWire is one registered principal. Principals are listed in
// dense-ID order so a replica replaying them assigns identical IDs —
// the compiled bitsets it rebuilds locally then index the same way the
// primary's do.
type PrincipalWire struct {
	Name  string `json:"name"`
	Class string `json:"class"`
}

// GroupWire is one group with its full direct-member list, in
// principal.Frozen.Members form (subgroups are "@"-prefixed). A
// message carries changed groups wholesale: direct-member lists are
// small and a full list makes the apply idempotent.
type GroupWire struct {
	Name    string   `json:"name"`
	Members []string `json:"members"`
}

// EpochWire is the change that carries epoch From to epoch Version, in
// the epoch's own shape: the header fields, then tables, then the
// deleted paths and one row per placed node. The lattice and registry
// shards are append-only (no level, category, principal, or group is
// ever removed), so Levels, Categories and Principals list what From
// lacks, and Groups lists the groups whose member lists changed. Stack
// is the guard stack when it changed (always, from version 0), nil
// when it did not.
//
// Every row's ACL and class are indexes into the ACLs and Classes
// tables, which list each distinct canonical ACL string and class label
// once, in order of first use. A row is an anchor or a child. An anchor
// (Parent -1) names a full path: if From holds that path the anchor
// replaces the node's content and keeps its children, otherwise it
// starts a new subtree, whose other nodes follow it as children. A
// child's parent is an earlier row of the same subtree, rows are in
// depth-first pre-order, and siblings appear in name order. Anchors and
// deletes are each in pre-order of their paths. A snapshot is one
// anchor, "/", and its whole tree.
//
// EncodeEpoch frames a message for the wire and DecodeEpoch rebuilds
// it; BuildEpoch and ApplyReplicated install it.
type EpochWire struct {
	From       uint64          `json:"from"`
	Version    uint64          `json:"version"`
	Levels     []string        `json:"levels"`
	Categories []string        `json:"categories"`
	Stack      []string        `json:"stack"`
	ACLs       []string        `json:"acls"`
	Classes    []string        `json:"classes"`
	Principals []PrincipalWire `json:"principals"`
	Groups     []GroupWire     `json:"groups"`
	Deletes    []string        `json:"deletes"`
	Rows       []RowWire       `json:"rows"`
}

// RowWire is one node of a message: its parent's row index (-1 for an
// anchor), its name (an anchor's full path, a child's component), kind,
// ACL and class table indexes, and multilevel flag.
type RowWire struct {
	Name       string `json:"n"`
	Parent     int32  `json:"p"`
	ACL        uint32 `json:"a"`
	Class      uint32 `json:"c"`
	Kind       uint8  `json:"k"`
	Multilevel bool   `json:"ml,omitempty"`
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

// WireSnapshot encodes the epoch as a full snapshot: the message from
// the empty epoch.
func (ep *Epoch) WireSnapshot() (*EpochWire, error) { return DiffEpochs(nil, ep) }

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

// contentDiffers reports whether two same-named nodes differ in
// protection-relevant content. Payloads are excluded (they do not
// replicate). ACLs compare by pointer first — spine clones share the
// ACL pointer — and by text when the pointers differ, so a node whose
// ACL pointer changed without its text never travels: the receiver
// rejects an anchor that changes nothing.
func contentDiffers(prev, next *Node) bool {
	return prev.kind != next.kind ||
		prev.multilevel != next.multilevel ||
		!prev.class.Equal(*next.class) ||
		prev.acl != next.acl && !prev.acl.Equal(next.acl)
}

// wireEncoder fills one message's tables and rows. ACLs and classes are
// tabled by pointer first (nodes share canonical values) and by text
// second, so each distinct ACL string and class label is rendered and
// listed once.
type wireEncoder struct {
	w           *EpochWire
	lat         *lattice.Frozen
	aclByPtr    map[*acl.ACL]uint32
	aclByText   map[string]uint32
	classByPtr  map[*lattice.Class]uint32
	classByText map[string]uint32
}

// row appends n as a row named name under parent.
func (e *wireEncoder) row(n *Node, parent int32, name string) error {
	ai, ok := e.aclByPtr[n.acl]
	if !ok {
		text := n.acl.String()
		if ai, ok = e.aclByText[text]; !ok {
			ai = uint32(len(e.w.ACLs))
			e.w.ACLs = append(e.w.ACLs, text)
			e.aclByText[text] = ai
		}
		e.aclByPtr[n.acl] = ai
	}
	ci, ok := e.classByPtr[n.class]
	if !ok {
		label, err := e.lat.Format(*n.class)
		if err != nil {
			return fmt.Errorf("names: wire-encode %s: %w", n.path, err)
		}
		if ci, ok = e.classByText[label]; !ok {
			ci = uint32(len(e.w.Classes))
			e.w.Classes = append(e.w.Classes, label)
			e.classByText[label] = ci
		}
		e.classByPtr[n.class] = ci
	}
	e.w.Rows = append(e.w.Rows, RowWire{
		Parent:     parent,
		Name:       name,
		Kind:       uint8(n.kind),
		Multilevel: n.multilevel,
		ACL:        ai,
		Class:      ci,
	})
	return nil
}

// subtree emits the subtree rooted at n in pre-order: n as a row named
// name under parent, then its descendants as children.
func (e *wireEncoder) subtree(n *Node, parent int32, name string) error {
	row := int32(len(e.w.Rows))
	if err := e.row(n, parent, name); err != nil {
		return err
	}
	for _, cr := range n.children {
		if err := e.subtree(cr.node, row, cr.name()); err != nil {
			return err
		}
	}
	return nil
}

// diffTree walks matched subtrees of the parent and successor epochs,
// emitting anchors and deletes in pre-order. Pointer-equal subtrees
// are pruned — the epoch publisher shares every untouched subtree, so
// the walk visits only the cloned spine plus the actual edits. A node
// whose content changed becomes an anchor that keeps its children; a
// new name becomes an anchor with its whole subtree; a vanished name
// becomes a delete.
func (e *wireEncoder) diffTree(prev, next *Node) error {
	if prev == next {
		return nil
	}
	if contentDiffers(prev, next) {
		if err := e.row(next, -1, next.path); err != nil {
			return err
		}
	}
	var err error
	pairChildren(prev.children, next.children, func(pc, nc *Node) {
		switch {
		case err != nil:
		case nc == nil:
			e.w.Deletes = append(e.w.Deletes, pc.path)
		case pc == nil:
			err = e.subtree(nc, -1, nc.path)
		default:
			err = e.diffTree(pc, nc)
		}
	})
	return err
}

// DiffEpochs derives the message that carries prev to next; a nil prev
// is the empty epoch, so DiffEpochs(nil, ep) is ep's snapshot. It is
// the encoding half of the replication contract: installing the
// decoded message on a faithful copy of prev yields a policy equal to
// next (tree, lattice, registry, stack — payloads excepted), which
// FuzzEpochDeltaCodec proves by deep comparison. Both epochs must come
// from the same server history (next derived from prev by
// publications); diffing unrelated epochs fails on the append-only
// shard checks.
func DiffEpochs(prev, next *Epoch) (*EpochWire, error) {
	w := &EpochWire{Version: next.version}
	var prevLevels, prevCategories []string
	var prevReg *principal.Frozen
	if prev == nil {
		w.Stack = next.stack.Guards()
		w.Rows = make([]RowWire, 0, next.Size())
	} else {
		if next.version < prev.version {
			return nil, fmt.Errorf("names: delta target v%d older than base v%d", next.version, prev.version)
		}
		w.From = prev.version
		prevLevels, prevCategories, prevReg = prev.lat.Levels(), prev.lat.Categories(), prev.reg
		if !slices.Equal(prev.stack.Guards(), next.stack.Guards()) {
			w.Stack = next.stack.Guards()
		}
	}
	var err error
	if w.Levels, err = appendSuffix("lattice level", prevLevels, next.lat.Levels()); err != nil {
		return nil, err
	}
	if w.Categories, err = appendSuffix("lattice category", prevCategories, next.lat.Categories()); err != nil {
		return nil, err
	}
	// A shared frozen registry means no principal or group moved.
	if next.reg != nil && next.reg != prevReg {
		if w.Principals, w.Groups, err = registryDelta(prevReg, next.reg, next.lat); err != nil {
			return nil, err
		}
	}
	e := wireEncoder{
		w:           w,
		lat:         next.lat,
		aclByPtr:    make(map[*acl.ACL]uint32),
		aclByText:   make(map[string]uint32),
		classByPtr:  make(map[*lattice.Class]uint32),
		classByText: make(map[string]uint32),
	}
	if prev == nil {
		err = e.subtree(next.root, -1, "/")
	} else {
		err = e.diffTree(prev.root, next.root)
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// ReplayRegistry replays w's registry part onto reg as one Apply: the
// new principals in dense-ID order (so a replica's IDs equal the
// primary's), the new groups, every membership removal, then every
// grant, so a moved subgroup edge never trips the cycle check on a
// half-moved edge set. A group reg does not have yet takes its list as
// plain adds, which keeps a bootstrap one Apply of adds; only a group
// reg has is diffed against its list. Classes parse against lat, each
// distinct label once. The lattice must already hold w's levels and
// categories.
func ReplayRegistry(reg *principal.Registry, lat *lattice.Lattice, w *EpochWire) error {
	if len(w.Principals) == 0 && len(w.Groups) == 0 {
		return nil
	}
	f := reg.Freeze()
	n := len(w.Principals) + len(w.Groups)
	for _, gw := range w.Groups {
		if !f.HasGroup(gw.Name) {
			n += len(gw.Members)
		}
	}
	edits := make([]principal.Edit, 0, n)
	classes := make(map[string]lattice.Class) // class values are immutable; principals share them
	for _, pw := range w.Principals {
		class, ok := classes[pw.Class]
		if !ok {
			var err error
			if class, err = lat.ParseClass(pw.Class); err != nil {
				return fmt.Errorf("names: replaying principal %s: %w", pw.Name, err)
			}
			classes[pw.Class] = class
		}
		edits = append(edits, principal.AddPrincipal(pw.Name, class))
	}
	var grants []principal.Edit // to groups reg has
	for _, gw := range w.Groups {
		if !f.HasGroup(gw.Name) {
			edits = append(edits, principal.AddGroup(gw.Name))
			continue
		}
		cur, _ := f.Members(gw.Name)
		want := make(map[string]bool, len(gw.Members))
		for _, m := range gw.Members {
			want[m] = true
		}
		have := make(map[string]bool, len(cur))
		for _, m := range cur {
			have[m] = true
			if !want[m] {
				edits = append(edits, principal.RemoveMember(gw.Name, strings.TrimPrefix(m, "@")))
			}
		}
		for _, m := range gw.Members {
			if !have[m] {
				grants = append(grants, principal.AddMember(gw.Name, strings.TrimPrefix(m, "@")))
			}
		}
	}
	edits = append(edits, grants...)
	for _, gw := range w.Groups {
		if !f.HasGroup(gw.Name) {
			for _, m := range gw.Members {
				edits = append(edits, principal.AddMember(gw.Name, strings.TrimPrefix(m, "@")))
			}
		}
	}
	_, err := reg.Apply(edits...)
	return err
}

// comparePaths orders canonical paths in tree pre-order: component by
// component, in name order, with an ancestor before its descendants.
func comparePaths(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			switch {
			case a[i] == '/':
				return -1
			case b[i] == '/':
				return 1
			case a[i] < b[i]:
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

// under reports whether path lies strictly below the node at dir.
func under(path, dir string) bool {
	return dir == "/" || len(path) > len(dir) && path[len(dir)] == '/' && strings.HasPrefix(path, dir)
}

// walkParts finds the node at the split path parts below root in a
// working tree, or nil.
func walkParts(root *Node, parts []string) *Node {
	for _, p := range parts {
		if root == nil {
			return nil
		}
		root = root.child(p)
	}
	return root
}

// badMessage reports a message that is not what DiffEpochs emits.
func badMessage(format string, args ...any) error {
	return fmt.Errorf("%w: epoch message %s", ErrBadPath, fmt.Sprintf(format, args...))
}

// EpochTree is a message's nodes, built and checked against one
// server's lattice and intern tables but not yet placed;
// ApplyReplicated grafts it onto the current tree. Building takes no
// server lock, so a replica builds the nodes while it replays the
// registry.
type EpochTree struct {
	srv     *Server
	from    uint64
	deletes [][]string
	anchors []anchorNode
}

// anchorNode is one anchor row's node, its split path, and whether
// child rows hang below it.
type anchorNode struct {
	node  *Node
	parts []string
	rows  bool
}

// BuildEpoch builds w's nodes for a later ApplyReplicated on s. Each
// table entry is parsed and canonicalized once; child rows attach to
// their parent by index, with the in-place appendChild (legal because
// this build allocated every node) and the path interned as parent
// path + "/" + name. Nothing is trusted: a message that is not exactly
// what DiffEpochs emits fails here or in the graft, before anything is
// published. The checks here: every table entry is in canonical form,
// distinct, and first used in table order; deletes and anchors are
// valid paths in strictly increasing pre-order, no anchor is also
// deleted, and a snapshot deletes nothing and has exactly one anchor,
// the root, first; "/" is the only root; each child row's parent is an
// earlier row on the path to the row before it within the same anchor
// (so rows are in pre-order) and is not a leaf; names are valid
// components in strictly increasing order among siblings; kinds and
// indexes are in range.
func (s *Server) BuildEpoch(w *EpochWire) (*EpochTree, error) {
	lat, in := s.lat.Freeze(), &s.strings
	acls := make([]*acl.ACL, len(w.ACLs))
	seen := make(map[string]bool, len(w.ACLs)+len(w.Classes))
	for i, text := range w.ACLs {
		a, err := acl.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("names: epoch message ACL %d: %w", i, err)
		}
		if a.String() != text || seen[text] {
			return nil, badMessage("ACL %d %q is not canonical or not distinct", i, text)
		}
		seen[text] = true
		acls[i] = s.acls.canon(a)
	}
	clear(seen)
	cls := make([]*lattice.Class, len(w.Classes))
	for i, label := range w.Classes {
		c, err := lat.ParseClass(label)
		if err != nil {
			return nil, fmt.Errorf("names: epoch message class %d: %w", i, err)
		}
		if again, err := lat.Format(c); err != nil || again != label || seen[label] {
			return nil, badMessage("class %d %q is not canonical or not distinct", i, label)
		}
		seen[label] = true
		cls[i] = s.classes.canon(c)
	}
	t := &EpochTree{srv: s, from: w.From, deletes: make([][]string, len(w.Deletes))}
	if w.From == 0 {
		if len(w.Deletes) > 0 {
			return nil, badMessage("from version 0 deletes %s", w.Deletes[0])
		}
		if len(w.Rows) == 0 || w.Rows[0].Parent != -1 || w.Rows[0].Name != "/" {
			return nil, badMessage("from version 0 must begin with the root")
		}
	}
	for i, path := range w.Deletes {
		parts, err := SplitPath(path)
		if err != nil {
			return nil, err
		}
		if len(parts) == 0 {
			return nil, badMessage("deletes the root")
		}
		if i > 0 && comparePaths(w.Deletes[i-1], path) >= 0 {
			return nil, badMessage("delete %s out of order", path)
		}
		t.deletes[i] = parts
	}
	in.reserve(len(w.Rows))
	nodes := make([]*Node, len(w.Rows))
	// open is the path from the current anchor to the previous row, as
	// row indexes: a pre-order child row's parent is always on it.
	open := make([]int32, 0, 16)
	var nextACL, nextClass uint32
	for i, r := range w.Rows {
		kind := Kind(r.Kind)
		switch {
		case r.Kind >= numKinds:
			return nil, badMessage("row %d has unknown kind %d", i, r.Kind)
		case r.ACL > nextACL || r.ACL >= uint32(len(acls)):
			return nil, badMessage("row %d ACL index %d out of order or range", i, r.ACL)
		case r.Class > nextClass || r.Class >= uint32(len(cls)):
			return nil, badMessage("row %d class index %d out of order or range", i, r.Class)
		case r.Multilevel && kind.Leaf():
			return nil, badMessage("row %d is a multilevel leaf", i)
		case (kind == KindRoot) != (r.Parent == -1 && r.Name == "/"):
			return nil, badMessage("row %d is a second root, or the root is not one", i)
		}
		if r.ACL == nextACL {
			nextACL++
		}
		if r.Class == nextClass {
			nextClass++
		}
		n := &Node{kind: kind, multilevel: r.Multilevel, acl: acls[r.ACL], class: cls[r.Class]}
		nodes[i] = n
		if r.Parent == -1 {
			parts, err := SplitPath(r.Name)
			switch {
			case w.From == 0 && i > 0:
				return nil, badMessage("row %d anchors %s, but from version 0 the root is the only anchor", i, r.Name)
			case err != nil:
				return nil, err
			case len(t.anchors) > 0 && comparePaths(t.anchors[len(t.anchors)-1].node.path, r.Name) >= 0:
				return nil, badMessage("anchor %s out of order", r.Name)
			}
			if _, deleted := slices.BinarySearchFunc(w.Deletes, r.Name, comparePaths); deleted {
				return nil, badMessage("anchor %s is also deleted", r.Name)
			}
			// The row's name may be a substring of a whole frame: the
			// tree keeps its own copy.
			n.path = in.intern(strings.Clone(r.Name))
			t.anchors = append(t.anchors, anchorNode{node: n, parts: parts})
			open = append(open[:0], int32(i))
			continue
		}
		for len(open) > 0 && open[len(open)-1] > r.Parent {
			open = open[:len(open)-1]
		}
		if len(open) == 0 || open[len(open)-1] != r.Parent {
			return nil, badMessage("row %d parent %d is not an open ancestor", i, r.Parent)
		}
		parent := nodes[r.Parent]
		if parent.kind.Leaf() {
			return nil, badMessage("row %d parent %s is a leaf", i, parent.path)
		}
		if err := ValidComponent(r.Name); err != nil {
			return nil, err
		}
		if k := len(parent.children); k > 0 && parent.children[k-1].name() >= r.Name {
			return nil, badMessage("row %d name %q out of sibling order under %s", i, r.Name, parent.path)
		}
		if parent.path == "/" {
			n.path = in.intern("/" + r.Name)
		} else {
			n.path = in.intern(parent.path + "/" + r.Name)
		}
		appendChild(parent, n)
		t.anchors[len(t.anchors)-1].rows = true
		open = append(open, int32(i))
	}
	if nextACL != uint32(len(acls)) || nextClass != uint32(len(cls)) {
		return nil, badMessage("tables list %d ACLs and %d classes, rows use %d and %d", len(acls), len(cls), nextACL, nextClass)
	}
	return t, nil
}

// graft applies the tree's deletes to base, then places each anchor
// with rebind, and returns the successor root; from version 0 the base
// is the empty tree. It never writes a node it did not build: an
// anchor over an existing node is placed as a copy that takes over the
// old node's children and payload, and no row of the message may hang
// below such an anchor. The checks: each delete names a node; each
// anchor's parent exists and is not a leaf; an anchor over an existing
// node carries no child rows, changes the node's content, and is not a
// leaf over children; an anchor that starts a new subtree has no later
// anchor below it.
func (t *EpochTree) graft(base *Node) (*Node, error) {
	root := base
	if t.from == 0 {
		root = nil
	}
	for _, parts := range t.deletes {
		if walkParts(root, parts) == nil {
			return nil, fmt.Errorf("%w: delta deletes unknown path /%s", ErrNotFound, strings.Join(parts, "/"))
		}
		root = rebind(root, parts, nil)
	}
	var fresh string // the last anchor that started a new subtree
	for _, a := range t.anchors {
		n := a.node
		if fresh != "" && under(n.path, fresh) {
			return nil, badMessage("anchor %s lies below the new subtree %s", n.path, fresh)
		}
		old := root
		if len(a.parts) > 0 {
			parent := walkParts(root, a.parts[:len(a.parts)-1])
			if parent == nil || parent.kind.Leaf() {
				return nil, fmt.Errorf("%w: anchor %s has no parent", ErrNotFound, n.path)
			}
			old = parent.child(a.parts[len(a.parts)-1])
		}
		if old == nil {
			fresh = n.path
		} else {
			switch {
			case a.rows:
				return nil, badMessage("anchor %s replaces a node and carries rows", n.path)
			case !contentDiffers(old, n):
				return nil, badMessage("anchor %s changes nothing", n.path)
			case n.kind.Leaf() && len(old.children) > 0:
				return nil, badMessage("leaf anchor %s replaces a node with children", n.path)
			}
			c := *n
			c.children, c.payload = old.children, old.payload
			n = &c
		}
		if len(a.parts) == 0 {
			root = n
		} else {
			root = rebind(root, a.parts, n)
		}
	}
	return root, nil
}

// ReplicaApply is one replicated epoch installation: an optional
// message tree to graft and an optional stack swap. PrimaryVersion
// stamps the journal record so lag is auditable; Kind defaults to
// "replica" ("replica-stale" marks a fail-closed installation). The
// lattice and registry shards are NOT part of this call: the replica
// replays those through the ordinary Define/Apply entry points first
// (they are append-only, so the intermediate epochs stay consistent),
// then installs the tree and stack atomically.
type ReplicaApply struct {
	PrimaryVersion uint64
	Kind           string
	Tree           *EpochTree
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
	if app.Tree != nil && app.Tree.srv != s {
		return 0, fmt.Errorf("names: epoch tree was built for another server")
	}
	kind := app.Kind
	if kind == "" {
		kind = "replica"
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	root := s.epoch.Load().root
	if app.Tree != nil {
		var err error
		if root, err = app.Tree.graft(root); err != nil {
			return 0, err
		}
	}
	shards := shardNames
	if app.Stack != nil {
		shards |= shardStack
	}
	return s.publishLocked(shards, kind, app.PrimaryVersion, func(e *Epoch) {
		e.root = root
		if app.Stack != nil {
			e.stack = app.Stack
		}
	}), nil
}
