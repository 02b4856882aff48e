package names

import (
	"maps"
	"slices"
	"strings"
	"sync"
	"time"
	"unsafe"

	"secext/internal/acl"
	"secext/internal/hamt"
	"secext/internal/idset"
	"secext/internal/lattice"
	"secext/internal/monitor"
	"secext/internal/monitor/dacguard"
	"secext/internal/monitor/macguard"
	"secext/internal/principal"
	"secext/internal/telemetry"
)

// Compiled epochs.
//
// Epochs are immutable, so anything computable at freeze time is free
// at read time. This file compiles three read-side structures into
// every published epoch (when a registry is attached):
//
//   - a path→entry index over the whole tree, a persistent hash trie
//     (internal/hamt) keyed by each entry's node path, so resolution
//     is one hash and one trie probe instead of a per-component spine
//     walk;
//   - per-ACL effective summaries (allow/deny sets of dense principal
//     IDs, internal/idset, a group entry resolved to the frozen
//     registry's own transitive-member set) plus a per-node
//     traversal-visibility chain (the AND of every strict ancestor's
//     effective List set and the Join of their classes), so the DAC
//     side of a check is a few set probes with zero entry iteration
//     and zero per-component work;
//   - an interned-class dominance table (lattice.Dominance), so the
//     MAC side is one bit-matrix probe per flow direction.
//
// The compiled fast path decides an allow and the three common
// denials: a hidden ancestor (the visibility chain refuses), a missing
// grant (the summary refuses) and a MAC flow failure (the dominance
// table refuses). A denial carries the walk's DeniedError field for
// field: the failing ancestor's path and Op "list", or the target's
// path and the requested modes, with the guard's own reason constant
// (dacguard.WhyNotGranted, macguard.Why*). Any miss — unknown path,
// unregistered subject, a non-default guard stack, a visibility failure
// no single ancestor explains — falls back to the spine walk, which
// remains the oracle the compiled structures are tested against. The
// obligation is two-way: the fast path never allows what the walk
// denies, and never denies what the walk allows or with other text.
// The oracle fuzz (FuzzEpochTransitions), the randomized oracle and the
// sampled shadow monitor compare both directions, error text included.
//
// Builds are incremental and pay for what changed. A build starts from
// the parent's index and copies only the trie nodes on the paths of the
// entries it writes; it prunes every subtree whose root pointer and
// visibility context are unchanged, and recompiles only what moved.
// Summaries are kept per distinct canonical ACL, not per node: an
// ACL's slot holds its one summary (and, once an interior node needs
// it, its effective List set), every entry using that ACL points at
// the slot, and a build compiles each ACL at most once. A registry
// transition recompiles only the slots it can have changed: those
// naming a group whose member row moved (rows are copy-on-write, so an
// unchanged row keeps its pointer), and, when the registry allocated
// new IDs, those naming a principal it did not know before. A
// membership toggle therefore costs O(ACLs naming that group), and the
// index and every entry stay shared with the parent. Summaries naming
// only resolved individuals stay valid across registry versions
// because principal IDs are dense, arrival-ordered, and never reused.
// "Everyone" sets are the run of IDs 0..n-1 over an ID space n rounded
// up to idChunk, so a new principal inside the current chunk changes no
// set and forces no walk. A rename lands as a deletion of the old paths
// plus a fresh compile of the relocated subtree (its nodes and paths
// are all new), which is the "targeted re-keying" the incremental
// contract promises.

// centry is one compiled index entry: the node, its ACL's summary
// slot, and the precomputed context of every traversal check strictly
// above it.
type centry struct {
	node *Node
	// effList is the node's effective List set over principal IDs (nil
	// for leaves, which have no children to make visible). It is the
	// input to the children's visibility chain.
	effList *idset.Set
	// visAllow is the AND of every strict ancestor's effList: the
	// principals for which every traversal DAC check on the way here
	// passes. visClass is the Join of every strict ancestor's class:
	// a subject dominates it iff it dominates each ancestor, i.e. iff
	// every traversal MAC check passes. visIdx is visClass interned in
	// the epoch's dominance table. hasVis is false only for the root,
	// which has no strict ancestors (resolution of "/" runs no
	// traversal checks at all).
	visAllow *idset.Set
	visClass lattice.Class
	objIdx   int32
	// slot is the node's ACL's slot: the node is judged by
	// compiled.sums[slot]. Entries never hold a summary themselves, so
	// a registry-only transition republishes just the sums slice and
	// shares every entry (and the whole index) wholesale.
	slot   int32
	visIdx int32
	hasVis bool
}

// indexed is one slot of the path index: an entry and its key, its
// node's canonical path. The index compares the key on every probe;
// kept beside the pointer, it is read in the load that finds the slot,
// and the entry and the key's bytes then load side by side. Reading it
// through the entry's node would chain two more cache misses before
// the compare.
type indexed struct {
	path string
	*centry
}

func indexKey(x *indexed) string { return x.path }

// aclSlot is the per-ACL state a summary slot carries across builds,
// apart from its reference count.
type aclSlot struct {
	acl *acl.ACL // nil: a free slot
	// eff is the summary's effective List set over the view's ID space,
	// computed the first time an interior node uses the slot (effOK).
	// A registry transition that changes it falls back to the walk,
	// because descendant visibility chains were built from it.
	eff   *idset.Set
	effOK bool
	// groups names the groups the ACL's entries use, recorded when the
	// slot is created: a registry transition recompiles the slot only if
	// one of their member rows moved (or it has an unresolved name and
	// the ID space grew).
	groups []string
}

// slotTable maps canonical ACLs to summary slots. It is immutable once
// published; a build copies what it changes. The reference counts are
// kept apart from the slots: every build that moves an entry between
// slots writes them, and an array of int32 copies without a write
// barrier, while the slots change only when an ACL gains or loses its
// slot or its effective List set.
type slotTable struct {
	ids   map[*acl.ACL]int32
	slots []aclSlot
	// refs counts the index entries judged by each slot; a build that
	// drops one to zero frees the slot.
	refs []int32
	free []int32
}

// retainedMem caches the lazily computed retained-bytes accounting of
// one compiled view (it is a pointer member so the compiled struct
// stays shallow-copyable).
type retainedMem struct {
	once   sync.Once
	dedup  int64
	cloned int64
}

// compiled is the read-side compilation of one epoch. It is immutable
// after the publication that built it.
type compiled struct {
	index hamt.Map[indexed]
	// sums holds each slot's summary compiled against this epoch's
	// registry (nil for a free slot).
	sums []*acl.Summary
	tab  *slotTable
	dom  *lattice.Dominance
	// fast records whether the epoch's guard stack is exactly the
	// default [dac, mac] pair, whose OpAccess/OpTraverse semantics the
	// summaries and dominance table reproduce. Any other stack keeps
	// the index for unchecked resolution but routes every decision
	// through the walk.
	fast bool
	// n is the principal-ID space size the sets were computed over: the
	// registry's ID count rounded up to idChunk. all is that space, IDs
	// 0..n-1, which every "everyone may list" set is; a view whose n is
	// unchanged takes its parent's.
	n   int
	all *idset.Set
	ret *retainedMem
}

// sumOf resolves e's summary in this compiled view.
func (c *compiled) sumOf(e *centry) *acl.Summary { return c.sums[e.slot] }

// sensitiveEntries counts the index entries judged by a
// registry-sensitive summary.
func (c *compiled) sensitiveEntries() int {
	n := 0
	for i, s := range c.sums {
		if s != nil && s.RegSensitive() {
			n += int(c.tab.refs[i])
		}
	}
	return n
}

// idChunk is the granularity of the compiled principal-ID space. A new
// principal that fits in the current chunk leaves the "everyone" run
// and every effective set computed from it valid, so it forces no walk
// and no effective-set rebuild.
const idChunk = 1024

// idSpace returns the ID space compiled sets cover for reg.
func idSpace(reg *principal.Frozen) int {
	return (reg.NumPrincipalIDs() + idChunk - 1) / idChunk * idChunk
}

// compileKind classifies how a publication obtained its compiled view.
type compileKind uint8

const (
	compileNone compileKind = iota
	compileFull
	compileIncremental
	compileReused
)

// compileStats is the freeze-cost split one publication reports: total build
// time, the share spent compiling ACL summaries, the share spent
// recomputing effective/visibility sets, and how many summaries it
// compiled.
type compileStats struct {
	kind     compileKind
	totalNs  int64
	sumNs    int64
	visNs    int64
	compiles int
}

// fastStack reports whether st is exactly the default [dac, mac]
// stack the compiled fast path models.
func fastStack(st *monitor.Stack) bool {
	if st.Depth() != 2 {
		return false
	}
	_, dacOK := st.At(0).(*dacguard.Guard)
	_, macOK := st.At(1).(*macguard.Guard)
	return dacOK && macOK
}

// visCtx is the accumulated traversal context above the node being
// compiled; the zero value (has == false) is the root's context.
type visCtx struct {
	allow *idset.Set
	cls   lattice.Class
	has   bool
}

// compileBuilder carries one build over the tree.
type compileBuilder struct {
	st *Epoch // the successor epoch being compiled
	// regInvalid marks that pruning unchanged subtrees is unsound: the
	// ID space grew (every "everyone" set covers a stale range) or
	// a registry transition moved the effective List set of an ACL some
	// interior node uses (descendant visibility chains are stale).
	// Summaries themselves never need a visit: entries read them
	// through the slots.
	regInvalid bool
	n          int
	all        *idset.Set // IDs 0..n-1
	dom        *lattice.DominanceBuilder
	idx        *hamt.Builder[indexed]

	// sums and tab start as the parent's. The reference counts are
	// copied up front; the summaries, the slots and the ACL→slot map
	// are copied on first write (ownSums, ownSlots, ownIDs).
	sums                     []*acl.Summary
	tab                      slotTable
	idsOwn, sumsOwn, slotOwn bool
	zeroed                   []int32 // slots whose refs reached zero
	compiles                 int
	sumNs, visNs             int64

	// andCache memoizes the visibility-chain AND by the identity of its
	// two operands, so equal chains collapse to one allocation.
	andCache map[andKey]*idset.Set
}

// newCompileBuilder starts a build of st over n principal IDs from the
// parent's view (nil: from nothing).
func newCompileBuilder(st *Epoch, prev *compiled, n int) *compileBuilder {
	b := &compileBuilder{st: st, n: n}
	if prev != nil && prev.n == n {
		b.all = prev.all
	} else {
		b.all = idset.Range(0, n)
	}
	if prev == nil {
		b.tab.ids, b.idsOwn, b.sumsOwn, b.slotOwn = make(map[*acl.ACL]int32), true, true, true
		return b
	}
	b.sums = prev.sums
	b.tab = slotTable{
		ids:   prev.tab.ids,
		slots: prev.tab.slots,
		refs:  slices.Clone(prev.tab.refs),
		free:  slices.Clip(prev.tab.free),
	}
	return b
}

func (b *compileBuilder) ownIDs() {
	if !b.idsOwn {
		b.tab.ids = maps.Clone(b.tab.ids)
		b.idsOwn = true
	}
}

func (b *compileBuilder) ownSums() {
	if !b.sumsOwn {
		b.sums = slices.Clone(b.sums)
		b.sumsOwn = true
	}
}

func (b *compileBuilder) ownSlots() {
	if !b.slotOwn {
		b.tab.slots = slices.Clone(b.tab.slots)
		b.slotOwn = true
	}
}

// compile compiles a against the successor's registry, timing the
// summary-compile share.
func (b *compileBuilder) compile(a *acl.ACL) *acl.Summary {
	t0 := time.Now()
	s := a.Compile(b.st.reg)
	b.sumNs += time.Since(t0).Nanoseconds()
	b.compiles++
	return s
}

// slotOf returns a's slot, allocating it (and compiling a's summary,
// the build's one compile of a) on first use.
func (b *compileBuilder) slotOf(a *acl.ACL) int32 {
	if i, ok := b.tab.ids[a]; ok {
		return i
	}
	b.ownIDs()
	b.ownSlots()
	b.ownSums()
	var i int32
	if k := len(b.tab.free); k > 0 {
		i, b.tab.free = b.tab.free[k-1], b.tab.free[:k-1]
	} else {
		i = int32(len(b.tab.slots))
		b.tab.slots = append(b.tab.slots, aclSlot{})
		b.tab.refs = append(b.tab.refs, 0)
		b.sums = append(b.sums, nil)
	}
	b.tab.slots[i] = aclSlot{acl: a, groups: aclGroups(a)}
	b.sums[i] = b.compile(a)
	b.tab.ids[a] = i
	return i
}

// effOf returns slot i's effective List set, computing it on first use.
func (b *compileBuilder) effOf(i int32) *idset.Set {
	if sl := &b.tab.slots[i]; sl.effOK {
		return sl.eff
	}
	t0 := time.Now()
	eff := b.sums[i].EffectiveIDs(acl.List, b.all)
	b.visNs += time.Since(t0).Nanoseconds()
	b.ownSlots()
	b.tab.slots[i].eff, b.tab.slots[i].effOK = eff, true
	return eff
}

// aclGroups returns the group names a's entries use.
func aclGroups(a *acl.ACL) []string {
	var out []string
	for _, e := range a.Entries() {
		if e.Kind == acl.Group && !slices.Contains(out, e.Who) {
			out = append(out, e.Who)
		}
	}
	return out
}

// recompileMoved recompiles the slots a registry transition from prev
// to the successor's registry can have changed: a slot naming a group
// whose member row moved, or, when the registry allocated new IDs, a
// slot with a name prev did not know. Rows are copy-on-write, so a
// row compares by pointer. With an unchanged ID space it compares each
// recompiled slot's effective List set (where an interior node
// computed one) with the old value, and marks the build regInvalid if
// any moved.
func (b *compileBuilder) recompileMoved(prev *principal.Frozen, nChanged bool) {
	next := b.st.reg
	grew := next.NumPrincipalIDs() != prev.NumPrincipalIDs()
	moved := make(map[string]bool)
	rowMoved := func(g string) bool {
		m, ok := moved[g]
		if !ok {
			m = prev.GroupPrincipalIDs(g) != next.GroupPrincipalIDs(g)
			moved[g] = m
		}
		return m
	}
	for i := range b.tab.slots {
		sl := &b.tab.slots[i]
		if sl.acl == nil || !(grew && b.sums[i].Unresolved()) && !slices.ContainsFunc(sl.groups, rowMoved) {
			continue
		}
		b.ownSums()
		b.sums[i] = b.compile(sl.acl)
		if sl.effOK && !nChanged {
			t0 := time.Now()
			eff := b.sums[i].EffectiveIDs(acl.List, b.all)
			b.visNs += time.Since(t0).Nanoseconds()
			if !eff.Equal(sl.eff) {
				b.ownSlots()
				b.tab.slots[i].eff = eff
				b.regInvalid = true
			}
		}
	}
}

// put binds e at its node's path in place of cur (nil: the path was
// unbound), moving one reference between their slots.
func (b *compileBuilder) put(e, cur *centry) {
	if cur == nil || cur.slot != e.slot {
		b.tab.refs[e.slot]++
		if cur != nil {
			b.release(cur.slot)
		}
	}
	b.idx.Put(indexed{e.node.path, e})
}

// release drops one reference to slot i; build frees it if no entry
// took it up again.
func (b *compileBuilder) release(i int32) {
	if b.tab.refs[i]--; b.tab.refs[i] == 0 {
		b.zeroed = append(b.zeroed, i)
	}
}

// andKey identifies a visibility-chain AND by its operands' identities
// (the sharing invariant makes identity ⟺ value for sets already in the
// build).
type andKey struct{ a, b *idset.Set }

// andSets returns vis ∧ eff, memoized by operand identity.
func (b *compileBuilder) andSets(vis, eff *idset.Set) *idset.Set {
	k := andKey{vis, eff}
	if v, ok := b.andCache[k]; ok {
		return v
	}
	if b.andCache == nil {
		b.andCache = make(map[andKey]*idset.Set, 16)
	}
	v := vis.And(eff)
	b.andCache[k] = v
	return v
}

// walk compiles node (at node.path) given old, the node published at
// the same path in the parent epoch (nil if the path is new), and the
// traversal context accumulated above it. visChanged reports whether
// that context differs from the one the parent's compile used.
func (b *compileBuilder) walk(node, old *Node, vis visCtx, visChanged bool) {
	if old == node && !visChanged && !b.regInvalid {
		// The whole subtree is shared with the parent epoch and every
		// compiled entry under it is still valid: the parent's index
		// already carries them.
		return
	}
	// Only this walk writes node.path, so the entry there is still the
	// parent's; it describes old if old kept its path. A path new to
	// this epoch (old == nil) has no entry, so a full build or a freshly
	// bound subtree skips the probe.
	var cur *centry
	if old != nil {
		if x, ok := b.idx.Get(node.path); ok {
			cur = x.centry
		}
	}
	var oldE *centry
	if cur != nil && old != nil && cur.node == old {
		oldE = cur
	}
	slot := b.slotOf(node.acl)

	// Effective List set (non-leaves only): the children's visibility
	// input. If it equals the old entry's, adopt the old pointer so
	// the children's pruning and sharing survive. The old node must
	// have had children: a leaf's entry skipped the computation, and
	// its nil is "not computed", not "nobody holds List".
	var effList *idset.Set
	if len(node.children) > 0 {
		effList = b.effOf(slot)
		if oldE != nil && len(oldE.node.children) > 0 && effList.Equal(oldE.effList) {
			effList = oldE.effList
		}
	}

	// An entry identical to the parent's (same node, slot, List set and
	// context — a subtree a regInvalid walk must visit but that did not
	// move) is kept, so its index nodes stay shared.
	if oldE == nil || oldE.node != node || oldE.slot != slot || effList != oldE.effList ||
		visChanged || vis.has != oldE.hasVis {
		e := &centry{
			node:    node,
			effList: effList,
			objIdx:  int32(b.dom.Add(*node.class)),
			slot:    slot,
			visIdx:  -1,
		}
		if vis.has {
			e.hasVis = true
			if !visChanged && oldE != nil && oldE.hasVis {
				// Context unchanged: keep the parent's pointers so the
				// chain stays shared across epochs.
				e.visAllow, e.visClass, e.visIdx = oldE.visAllow, oldE.visClass, oldE.visIdx
			} else {
				e.visAllow, e.visClass = vis.allow, vis.cls
				e.visIdx = int32(b.dom.Add(vis.cls))
			}
		}
		b.put(e, cur)
	}

	var kids []childRef
	if old != nil {
		kids = old.children
	}
	if len(node.children) == 0 {
		for _, cr := range kids {
			b.deleteSubtree(cr.node)
		}
		return
	}
	var childVis visCtx
	if !vis.has {
		childVis = visCtx{allow: effList, cls: *node.class, has: true}
	} else {
		childVis = visCtx{allow: b.andSets(vis.allow, effList), cls: vis.cls.Join(*node.class), has: true}
	}
	// The children's context changes when this node's List set OR its
	// class moved: both feed the chain (allow ∧ effList, cls ⊔ class),
	// so a relabel must recompile descendant visibility even though
	// the descendants' own nodes are shared with the parent epoch.
	childChanged := visChanged || oldE == nil ||
		effList != oldE.effList || !node.class.Equal(*oldE.node.class)
	pairChildren(kids, node.children, func(o, n *Node) {
		if n == nil {
			b.deleteSubtree(o)
			return
		}
		b.walk(n, o, childVis, childChanged)
	})
}

// deleteSubtree removes the compiled entries of a subtree that is no
// longer bound at its old paths (unbind, or the detach side of a
// rename — the re-key of the incremental contract).
func (b *compileBuilder) deleteSubtree(n *Node) {
	if e, ok := b.idx.Get(n.path); ok && e.node == n {
		b.release(e.slot)
		b.idx.Delete(n.path)
	}
	for _, cr := range n.children {
		b.deleteSubtree(cr.node)
	}
}

// build walks the successor's tree against old, the parent's (nil: a
// full build), on top of prev's index and dominance table, frees the
// slots no entry uses any more, and assembles the view.
func (b *compileBuilder) build(old *Node, prev *compiled) *compiled {
	index := hamt.New(indexKey)
	var dom *lattice.Dominance
	if prev != nil {
		index, dom = prev.index, prev.dom
	}
	b.idx, b.dom = index.Edit(), lattice.BuilderFrom(dom)
	b.walk(b.st.root, old, visCtx{}, false)
	for _, i := range b.zeroed {
		if sl := b.tab.slots[i]; b.tab.refs[i] == 0 && sl.acl != nil {
			b.ownIDs()
			b.ownSlots()
			b.ownSums()
			delete(b.tab.ids, sl.acl)
			b.tab.slots[i] = aclSlot{}
			b.sums[i] = nil
			b.tab.free = append(b.tab.free, i)
		}
	}
	tab := b.tab
	return &compiled{
		index: b.idx.Map(), sums: b.sums, tab: &tab,
		dom: b.dom.Build(), fast: fastStack(b.st.stack), n: b.n, all: b.all,
		ret: &retainedMem{},
	}
}

// compileEpoch builds the successor epoch's compiled view. Caller holds
// writeMu and has not yet stored st, so s.epoch.Load() is still the
// parent epoch. st.reg is non-nil (checked by the publisher).
func (s *Server) compileEpoch(st *Epoch) (*compiled, compileStats) {
	prev := s.epoch.Load()
	prevC := prev.compiled
	n := idSpace(st.reg)
	start := time.Now()
	stats := func(kind compileKind, b *compileBuilder) compileStats {
		return compileStats{
			kind: kind, totalNs: time.Since(start).Nanoseconds(),
			sumNs: b.sumNs, visNs: b.visNs, compiles: b.compiles,
		}
	}

	if prevC == nil {
		b := newCompileBuilder(st, nil, n)
		return b.build(nil, nil), stats(compileFull, b)
	}

	b := newCompileBuilder(st, prevC, n)
	nChanged := n != prevC.n
	if nChanged {
		// Every "everyone" set covers the old ID range.
		b.regInvalid = true
		b.ownSlots()
		for i := range b.tab.slots {
			b.tab.slots[i].eff, b.tab.slots[i].effOK = nil, false
		}
	}
	if st.reg != prev.reg {
		b.recompileMoved(prev.reg, nChanged)
	}
	if st.root == prev.root && !b.regInvalid {
		if b.compiles == 0 {
			// Nothing the compiled structures depend on moved (a pure
			// lattice/stack transition, or a registry transition no
			// summary depends on). Reuse wholesale; only the fast flag
			// can differ, and it is the one scalar field, so a shallow
			// copy suffices.
			c := prevC
			if fast := fastStack(st.stack); fast != prevC.fast {
				cp := *prevC
				cp.fast = fast
				c = &cp
			}
			return c, stats(compileReused, b)
		}
		// A registry transition over an unchanged tree that moved no
		// List set: the recompiled summaries are the whole change, and
		// the index, the entries and the slot table are shared with the
		// parent.
		c := &compiled{
			index: prevC.index, sums: b.sums, tab: prevC.tab, dom: prevC.dom,
			fast: fastStack(st.stack), n: n, all: b.all, ret: &retainedMem{},
		}
		return c, stats(compileIncremental, b)
	}
	return b.build(prev.root, prevC), stats(compileIncremental, b)
}

// fastCheck answers checkAccessIn from the compiled structures alone:
// index probe, visibility set tests, summary probe, dominance probe.
// decided == false means "take the walk"; when decided, (n, err) is the
// walk's answer, a denial's DeniedError included. The checks run in the
// walk's order: the traversal of every strict ancestor, then the
// target's DAC, then its MAC flow.
func (ep *Epoch) fastCheck(sub acl.Subject, class lattice.Class, path string, modes acl.Mode) (n *Node, err error, decided bool) {
	c := ep.compiled
	if c == nil || !c.fast || sub == nil {
		return nil, nil, false
	}
	x := c.index.Ref(path)
	if x == nil {
		return nil, nil, false
	}
	e := x.centry
	pid, ok := ep.subjectID(sub)
	if !ok {
		return nil, nil, false
	}
	sIdx, sOK := c.dom.Index(class)
	if e.hasVis && !c.visible(e, pid, class, sIdx, sOK) {
		return c.hiddenAncestor(pid, class, sIdx, sOK, path)
	}
	if !c.sumOf(e).Grants(pid, modes) {
		return nil, &DeniedError{Path: path, Op: modes.String(), Why: dacguard.WhyNotGranted}, true
	}
	if why := c.flowDenial(e, class, sIdx, sOK, modes); why != "" {
		return nil, &DeniedError{Path: path, Op: modes.String(), Why: why}, true
	}
	return e.node, nil, true
}

// visible reports whether every traversal check above e passes for the
// subject: its ID is in the chain's List set and its class dominates
// the chain's Join.
func (c *compiled) visible(e *centry, pid int, class lattice.Class, sIdx int, sOK bool) bool {
	if !e.visAllow.Has(pid) {
		return false
	}
	// A zero visClass (an unclassed or cross-lattice ancestor collapsed
	// the Join) is never interned and CanRead of it is false for every
	// subject, so both arms refuse — matching the walk, which denies at
	// such an ancestor.
	if sOK && e.visIdx >= 0 {
		return c.dom.Dominates(sIdx, int(e.visIdx))
	}
	return class.CanRead(e.visClass)
}

// flowDenial is the MAC guard's flow decision on e's node, through the
// dominance table when both classes are interned: "" for an allow, else
// the guard's reason.
func (c *compiled) flowDenial(e *centry, class lattice.Class, sIdx int, sOK bool, modes acl.Mode) string {
	if sOK && e.objIdx >= 0 {
		return macguard.FlowDenialInterned(c.dom, sIdx, int(e.objIdx), modes)
	}
	return macguard.FlowDenial(class, *e.node.class, modes)
}

// hiddenAncestor finds the strict ancestor of path whose traversal check
// denies, probing the index for each prefix from "/" downward and
// judging each as the [dac, mac] stack does: its List grant, then MAC
// read. The denial names the ancestor with Op "list", as the walk's
// does. decided is false if a prefix is missing or every ancestor
// passes, which leaves the answer to the walk.
func (c *compiled) hiddenAncestor(pid int, class lattice.Class, sIdx int, sOK bool, path string) (n *Node, err error, decided bool) {
	for i := 0; ; {
		prefix := path[:max(i, 1)] // the root's path is "/"
		x := c.index.Ref(prefix)
		if x == nil {
			return nil, nil, false
		}
		why := dacguard.WhyNotGranted
		if c.sumOf(x.centry).Grants(pid, acl.List) {
			why = c.flowDenial(x.centry, class, sIdx, sOK, acl.List)
		}
		if why != "" {
			return nil, &DeniedError{Path: prefix, Op: acl.List.String(), Why: why}, true
		}
		j := strings.IndexByte(path[i+1:], '/')
		if j < 0 {
			return nil, nil, false
		}
		i += 1 + j
	}
}

// subjectID returns sub's dense principal ID in this epoch's registry.
// A subject that carries its principal (a *principal.Principal, or a
// context acting for one) is confirmed by pointer against the
// registry's row for that ID, so the check hashes no name. Any other
// subject, and a principal the registry did not register (a replica's
// principal checked on the primary), is looked up by name.
func (ep *Epoch) subjectID(sub acl.Subject) (int, bool) {
	var p *principal.Principal
	switch s := sub.(type) {
	case *principal.Principal:
		p = s
	case interface{ Principal() *principal.Principal }:
		p = s.Principal()
	}
	if p != nil {
		if id, ok := ep.reg.IDOf(p); ok {
			return id, true
		}
	}
	return ep.reg.PrincipalID(sub.SubjectName())
}

// fastResolve answers resolveIn from the index: a bare probe for
// unchecked resolution, the precomputed visibility chain for checked.
// Like fastCheck it decides success only.
func (ep *Epoch) fastResolve(sub acl.Subject, class lattice.Class, path string, checked bool) (*Node, bool) {
	c := ep.compiled
	if c == nil {
		return nil, false
	}
	if !checked {
		if x := c.index.Ref(path); x != nil {
			return x.node, true
		}
		return nil, false
	}
	if !c.fast || sub == nil {
		return nil, false
	}
	x := c.index.Ref(path)
	if x == nil {
		return nil, false
	}
	e := x.centry
	if !e.hasVis {
		return e.node, true // the root: no traversal checks apply
	}
	pid, ok := ep.subjectID(sub)
	if !ok {
		return nil, false
	}
	sIdx, sOK := c.dom.Index(class)
	if !c.visible(e, pid, class, sIdx, sOK) {
		return nil, false
	}
	return e.node, true
}

// Compiled reports whether this epoch carries compiled read-side
// structures (a registry is attached and compilation is enabled).
func (ep *Epoch) Compiled() bool { return ep.compiled != nil }

// CompiledResolve probes the epoch's path index with no checks. ok is
// false when the epoch is not compiled or the path is unbound; tests
// and experiments use it to compare the probe against the spine walk.
func (ep *Epoch) CompiledResolve(path string) (*Node, bool) {
	if ep.compiled == nil {
		return nil, false
	}
	x := ep.compiled.index.Ref(path)
	if x == nil {
		return nil, false
	}
	return x.node, true
}

// CompiledCheck runs the compiled fast check. decided is true when the
// compiled structures answered — an allow, a missing grant, a hidden
// ancestor or a MAC flow failure — and then (n, err) is exactly the
// walk's answer; otherwise the caller must take the walk.
func (ep *Epoch) CompiledCheck(sub acl.Subject, class lattice.Class, path string, modes acl.Mode) (n *Node, err error, decided bool) {
	return ep.fastCheck(sub, class, path, modes)
}

// CompiledAllows is CompiledCheck narrowed to allows: decided is true
// only for a full allow (resolution visibility, DAC summary, and MAC
// dominance all pass). The oracle fuzz asserts decided allows agree
// with the walk everywhere.
func (ep *Epoch) CompiledAllows(sub acl.Subject, class lattice.Class, path string, modes acl.Mode) (n *Node, decided bool) {
	n, err, decided := ep.fastCheck(sub, class, path, modes)
	return n, decided && err == nil
}

// CompiledGrants returns the compiled effective mode set of the named
// subject on the node at path — the Summary form of GrantedIn. ok is
// false when the epoch is not compiled, the path is unbound, or the
// subject has no principal ID.
func (ep *Epoch) CompiledGrants(path, subject string) (acl.Mode, bool) {
	if ep.compiled == nil {
		return 0, false
	}
	x := ep.compiled.index.Ref(path)
	if x == nil {
		return 0, false
	}
	pid, ok := ep.reg.PrincipalID(subject)
	if !ok {
		return 0, false
	}
	return ep.compiled.sumOf(x.centry).Granted(pid), true
}

// CompiledStats returns the compiled-epoch counters, the freeze-cost
// split histograms, and the current epoch's compiled footprint.
func (s *Server) CompiledStats() telemetry.CompiledStats {
	st := telemetry.CompiledStats{
		Full:           s.compFull.Load(),
		Incremental:    s.compIncr.Load(),
		Reused:         s.compReused.Load(),
		Summaries:      s.compSummaries.Load(),
		IndexBuild:     s.compIndexNs.Snapshot(),
		SummaryCompile: s.compSummaryNs.Snapshot(),
		VisRecompute:   s.compVisNs.Snapshot(),
	}
	if c := s.epoch.Load().compiled; c != nil {
		st.Entries = c.index.Len()
		st.DomClasses = c.dom.Len()
		st.Sensitive = c.sensitiveEntries()
		st.RetainedBytes, st.RetainedBytesCloned = c.retainedBytes()
	}
	return st
}

// retainedBytes computes (once, lazily — compiled views are immutable
// so any goroutine may trigger it) the heap bytes the compiled view
// retains. dedup counts shared structures once, the honest number for
// "what does this epoch pin"; cloned counts them at every use site, an
// upper bound showing what sharing saves (summaries are shared across
// epochs and entries, ID sets across summaries, slots and visibility
// chains, and a group's set with the registry).
func (c *compiled) retainedBytes() (dedup, cloned int64) {
	c.ret.once.Do(func() {
		seenSum := make(map[*acl.Summary]bool)
		seenSet := make(map[*idset.Set]bool)
		pin := func(s *idset.Set) {
			if !seenSet[s] {
				seenSet[s] = true
				c.ret.dedup += int64(s.RetainedBytes())
			}
		}
		addSet := func(s *idset.Set) {
			c.ret.cloned += int64(s.RetainedBytes())
			pin(s)
		}
		// The index: its trie arrays (a slot per entry: the key's string
		// header and the entry pointer) and the entries. A trie node has
		// one parent within a view, so both counts take each array once.
		// The key bytes are the nodes' own paths, which the tree holds.
		idx := c.index.Bytes()
		c.ret.dedup += idx
		c.ret.cloned += idx
		entrySize := int64(unsafe.Sizeof(centry{}))
		c.index.Range(func(x *indexed) bool {
			e := x.centry
			c.ret.dedup += entrySize
			c.ret.cloned += entrySize
			sum := c.sumOf(e)
			if !seenSum[sum] {
				seenSum[sum] = true
				sum.EachSet(pin)
			}
			c.ret.cloned += int64(sum.RetainedBytes())
			addSet(e.effList)
			addSet(e.visAllow)
			return true
		})
		// The slot table: one summary pointer, one slot and one reference
		// count per distinct ACL, plus the ACL→slot map.
		tab := int64(cap(c.sums))*8 + int64(cap(c.tab.slots))*int64(unsafe.Sizeof(aclSlot{})) +
			int64(cap(c.tab.refs))*4 + int64(len(c.tab.ids))*16
		c.ret.dedup += tab
		c.ret.cloned += tab
		for _, sl := range c.tab.slots {
			if !seenSet[sl.eff] {
				addSet(sl.eff)
			}
		}
		dom := int64(c.dom.RetainedBytes())
		c.ret.dedup += dom
		c.ret.cloned += dom
	})
	return c.ret.dedup, c.ret.cloned
}
