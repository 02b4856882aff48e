package names

import (
	"maps"
	"sync"
	"time"
	"unsafe"

	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/monitor"
	"secext/internal/monitor/dacguard"
	"secext/internal/monitor/macguard"
	"secext/internal/telemetry"
)

// Compiled epochs.
//
// Epochs are immutable, so anything computable at freeze time is free
// at read time. This file compiles three read-side structures into
// every published epoch (when a registry is attached):
//
//   - a path→entry hash index over the whole tree (sharded for
//     copy-on-write, see pathindex.go), so resolution is one hash and
//     one map probe instead of a per-component spine walk;
//   - per-ACL effective summaries (allow/deny bitsets over dense
//     principal IDs, group entries flattened through the frozen
//     registry's transitive-membership bitsets) plus a per-node
//     traversal-visibility chain (the AND of every strict ancestor's
//     effective List set and the Join of their classes), so the DAC
//     side of a check is a few bitset probes with zero entry iteration
//     and zero per-component work;
//   - an interned-class dominance table (lattice.Dominance), so the
//     MAC side is one bit-matrix probe per flow direction.
//
// The compiled fast path decides ALLOW only: any miss — unknown path,
// unregistered subject, a failing probe, a non-default guard stack —
// falls back to the spine walk, which produces byte-identical errors
// and remains the oracle the compiled structures are tested against.
// The security-critical direction is therefore structural: the fast
// path can never allow what the walk denies unless the compiled
// bitsets disagree with the ACL/lattice evaluation, which the oracle
// fuzz (FuzzEpochTransitions) and the guard-level equivalence tests
// exist to rule out.
//
// Builds are incremental and pay for what changed. A build starts from
// the parent's copy-on-write path index (pathindex.go) and clones only
// the shards it writes; it prunes every subtree whose root pointer and
// visibility context are unchanged, and recompiles only what moved.
// Summaries are kept per distinct canonical ACL, not per node: an
// ACL's slot holds its one summary (and, once an interior node needs
// it, its effective List set), every entry using that ACL points at
// the slot, and a build compiles each ACL at most once. A registry
// transition recompiles only the registry-sensitive slots (group
// entries or unresolved names) — O(distinct sensitive ACLs), not
// O(sensitive nodes) — and shares the index and every entry with the
// parent; summaries naming only resolved individuals stay valid across
// registry versions because principal IDs are dense, arrival-ordered,
// and never reused. A rename lands as a deletion of the old paths plus
// a fresh compile of the relocated subtree (its nodes and paths are
// all new), which is the "targeted re-keying" the incremental contract
// promises.

// centry is one compiled index entry: the node, its ACL's summary
// slot, and the precomputed context of every traversal check strictly
// above it.
type centry struct {
	node *Node
	// effList is the node's effective List set over principal IDs (nil
	// for leaves, which have no children to make visible). It is the
	// input to the children's visibility chain.
	effList acl.IDSet
	// visAllow is the AND of every strict ancestor's effList: the
	// principals for which every traversal DAC check on the way here
	// passes. visClass is the Join of every strict ancestor's class:
	// a subject dominates it iff it dominates each ancestor, i.e. iff
	// every traversal MAC check passes. visIdx is visClass interned in
	// the epoch's dominance table. hasVis is false only for the root,
	// which has no strict ancestors (resolution of "/" runs no
	// traversal checks at all).
	visAllow acl.IDSet
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

// aclSlot is the per-ACL state a summary slot carries across builds.
type aclSlot struct {
	acl *acl.ACL // nil: a free slot
	// refs counts the index entries judged by this slot; a build that
	// drops it to zero frees the slot.
	refs int32
	// eff is the summary's effective List set over the view's ID space,
	// computed the first time an interior node uses the slot (effOK).
	// A registry transition that changes it falls back to the walk,
	// because descendant visibility chains were built from it.
	eff   acl.IDSet
	effOK bool
}

// slotTable maps canonical ACLs to summary slots. It is immutable once
// published; a build copies what it changes.
type slotTable struct {
	ids   map[*acl.ACL]int32
	slots []aclSlot
	free  []int32
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
// after the flush that built it publishes.
type compiled struct {
	index *pathIndex
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
	// n is the principal-ID space size the bitsets were materialized
	// over.
	n   int
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
			n += int(c.tab.slots[i].refs)
		}
	}
	return n
}

// compileKind classifies how a flush obtained its compiled view.
type compileKind uint8

const (
	compileNone compileKind = iota
	compileFull
	compileIncremental
	compileReused
)

// compileStats is the freeze-cost split one flush reports: total build
// time, the share spent compiling ACL summaries, the share spent
// recomputing effective/visibility bitsets, and how many summaries it
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
	allow acl.IDSet
	cls   lattice.Class
	has   bool
}

// compileBuilder carries one build over the tree.
type compileBuilder struct {
	st *Epoch // the staged successor epoch being compiled
	// regInvalid marks that pruning unchanged subtrees is unsound: the
	// ID space grew (every materialized bitset covers a stale range) or
	// a registry transition moved the effective List set of an ACL some
	// interior node uses (descendant visibility chains are stale).
	// Summaries themselves never need a visit: entries read them
	// through the slots.
	regInvalid bool
	n          int
	dom        *lattice.DominanceBuilder
	idx        *indexBuilder

	// sums and tab are copies of the parent's (O(distinct ACLs)); the
	// ACL→slot map is copied on first write (ownIDs).
	sums         []*acl.Summary
	tab          slotTable
	idsOwn       bool
	zeroed       []int32 // slots whose refs reached zero
	compiles     int
	sumNs, visNs int64

	// andCache memoizes the visibility-chain AND by the identity of its
	// two operands, so equal chains collapse to one allocation.
	andCache map[andKey]acl.IDSet
}

// newCompileBuilder starts a build of st over n principal IDs from the
// parent's view (nil: from nothing).
func newCompileBuilder(st *Epoch, prev *compiled, n int) *compileBuilder {
	b := &compileBuilder{st: st, n: n}
	if prev == nil {
		b.tab.ids, b.idsOwn = make(map[*acl.ACL]int32), true
		return b
	}
	b.sums = append([]*acl.Summary(nil), prev.sums...)
	b.tab = slotTable{
		ids:   prev.tab.ids,
		slots: append([]aclSlot(nil), prev.tab.slots...),
		free:  append([]int32(nil), prev.tab.free...),
	}
	return b
}

func (b *compileBuilder) ownIDs() {
	if !b.idsOwn {
		b.tab.ids = maps.Clone(b.tab.ids)
		b.idsOwn = true
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
	var i int32
	if k := len(b.tab.free); k > 0 {
		i, b.tab.free = b.tab.free[k-1], b.tab.free[:k-1]
	} else {
		i = int32(len(b.tab.slots))
		b.tab.slots = append(b.tab.slots, aclSlot{})
		b.sums = append(b.sums, nil)
	}
	b.tab.slots[i] = aclSlot{acl: a}
	b.sums[i] = b.compile(a)
	b.tab.ids[a] = i
	return i
}

// effOf returns slot i's effective List set, computing it on first use.
func (b *compileBuilder) effOf(i int32) acl.IDSet {
	if sl := &b.tab.slots[i]; sl.effOK {
		return sl.eff
	}
	t0 := time.Now()
	eff := b.sums[i].EffectiveIDs(acl.List, b.n)
	b.visNs += time.Since(t0).Nanoseconds()
	b.tab.slots[i].eff, b.tab.slots[i].effOK = eff, true
	return eff
}

// recompileSensitive recompiles every registry-sensitive slot against
// the successor's registry — the whole summary cost of a registry
// transition. With an unchanged ID space it compares each recompiled
// slot's effective List set (where an interior node computed one)
// with the old value, and marks the build regInvalid if any moved.
func (b *compileBuilder) recompileSensitive(nChanged bool) {
	for i, s := range b.sums {
		if s == nil || !s.RegSensitive() {
			continue
		}
		b.sums[i] = b.compile(b.tab.slots[i].acl)
		if sl := b.tab.slots[i]; sl.effOK && !nChanged {
			t0 := time.Now()
			eff := b.sums[i].EffectiveIDs(acl.List, b.n)
			b.visNs += time.Since(t0).Nanoseconds()
			if !eff.Equal(sl.eff) {
				b.tab.slots[i].eff = eff
				b.regInvalid = true
			}
		}
	}
}

// put binds path to e in place of cur (nil: the path was unbound),
// moving one reference between their slots.
func (b *compileBuilder) put(path string, e, cur *centry) {
	if cur == nil || cur.slot != e.slot {
		b.tab.slots[e.slot].refs++
		if cur != nil {
			b.release(cur.slot)
		}
	}
	b.idx.set(path, e)
}

// release drops one reference to slot i; build frees it if no entry
// took it up again.
func (b *compileBuilder) release(i int32) {
	if b.tab.slots[i].refs--; b.tab.slots[i].refs == 0 {
		b.zeroed = append(b.zeroed, i)
	}
}

// andKey identifies an IDSet AND by its operands' identities (backing
// array head + length — the sharing invariant makes identity ⟺ value
// for sets already in the build).
type andKey struct {
	a, b *uint64
	la   int
	lb   int
}

func setHead(s acl.IDSet) *uint64 {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

// andSets returns vis ∧ eff, memoized by operand identity.
func (b *compileBuilder) andSets(vis, eff acl.IDSet) acl.IDSet {
	k := andKey{a: setHead(vis), b: setHead(eff), la: len(vis), lb: len(eff)}
	if v, ok := b.andCache[k]; ok {
		return v
	}
	if b.andCache == nil {
		b.andCache = make(map[andKey]acl.IDSet, 16)
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
		// shards already carry them.
		return
	}
	// Only this walk writes node.path, so the entry there is still the
	// parent's; it describes old if old kept its path.
	cur, _ := b.idx.get(node.path)
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
	var effList acl.IDSet
	if len(node.children) > 0 {
		effList = b.effOf(slot)
		if oldE != nil && len(oldE.node.children) > 0 && effList.Equal(oldE.effList) {
			effList = oldE.effList
		}
	}

	// An entry identical to the parent's (same node, slot, List set and
	// context — a subtree a regInvalid walk must visit but that did not
	// move) is kept, so its index shard stays shared.
	if oldE == nil || oldE.node != node || oldE.slot != slot || !sameIDSet(effList, oldE.effList) ||
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
		b.put(node.path, e, cur)
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
		!sameIDSet(effList, oldE.effList) || !node.class.Equal(*oldE.node.class)
	pairChildren(kids, node.children, func(o, n *Node) {
		if n == nil {
			b.deleteSubtree(o)
			return
		}
		b.walk(n, o, childVis, childChanged)
	})
}

// sameIDSet reports slice identity (same backing array and length) —
// the sharing invariant the incremental build maintains: an unchanged
// effList keeps the parent epoch's pointer, so identity ⟺ unchanged.
func sameIDSet(a, b acl.IDSet) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// deleteSubtree removes the compiled entries of a subtree that is no
// longer bound at its old paths (unbind, or the detach side of a
// rename — the re-key of the incremental contract).
func (b *compileBuilder) deleteSubtree(n *Node) {
	if e, ok := b.idx.get(n.path); ok && e.node == n {
		b.release(e.slot)
		b.idx.del(n.path)
	}
	for _, cr := range n.children {
		b.deleteSubtree(cr.node)
	}
}

// build walks the successor's tree against old, the parent's (nil: a
// full build), on top of prev's index and dominance table, frees the
// slots no entry uses any more, and assembles the view.
func (b *compileBuilder) build(old *Node, prev *compiled) *compiled {
	var index *pathIndex
	var dom *lattice.Dominance
	if prev != nil {
		index, dom = prev.index, prev.dom
	}
	b.idx, b.dom = newIndexBuilder(index), lattice.BuilderFrom(dom)
	b.walk(b.st.root, old, visCtx{}, false)
	for _, i := range b.zeroed {
		if sl := b.tab.slots[i]; sl.refs == 0 && sl.acl != nil {
			b.ownIDs()
			delete(b.tab.ids, sl.acl)
			b.tab.slots[i] = aclSlot{}
			b.sums[i] = nil
			b.tab.free = append(b.tab.free, i)
		}
	}
	tab := b.tab
	return &compiled{
		index: b.idx.finish(), sums: b.sums, tab: &tab,
		dom: b.dom.Build(), fast: fastStack(b.st.stack), n: b.n,
		ret: &retainedMem{},
	}
}

// compileEpoch builds the staged epoch's compiled view. Caller holds
// writeMu and has not yet stored st, so s.epoch.Load() is still the
// parent epoch. st.reg is non-nil (checked by the flush).
func (s *Server) compileEpoch(st *Epoch) (*compiled, compileStats) {
	prev := s.epoch.Load()
	prevC := prev.compiled
	n := st.reg.NumPrincipalIDs()
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
		// Every materialized bitset covers the old ID range.
		b.regInvalid = true
		for i := range b.tab.slots {
			b.tab.slots[i].eff, b.tab.slots[i].effOK = nil, false
		}
	}
	if st.reg != prev.reg {
		b.recompileSensitive(nChanged)
	}
	if st.root == prev.root && !b.regInvalid {
		if b.compiles == 0 {
			// Nothing the compiled structures depend on moved (a pure
			// lattice/stack/traversal transition, or a registry
			// transition no summary is sensitive to). Reuse wholesale;
			// only the fast flag can differ, and it is the one scalar
			// field, so a shallow copy suffices.
			c := prevC
			if fast := fastStack(st.stack); fast != prevC.fast {
				cp := *prevC
				cp.fast = fast
				c = &cp
			}
			return c, stats(compileReused, b)
		}
		// A registry transition over an unchanged tree that moved no
		// List set: the recompiled sensitive summaries are the whole
		// change, and the index, the entries and the slot table are
		// shared with the parent.
		c := &compiled{
			index: prevC.index, sums: b.sums, tab: prevC.tab, dom: prevC.dom,
			fast: fastStack(st.stack), n: n, ret: &retainedMem{},
		}
		return c, stats(compileIncremental, b)
	}
	return b.build(prev.root, prevC), stats(compileIncremental, b)
}

// fastCheck answers CheckAccess's resolve+verify from the compiled
// structures alone: index probe, visibility bitset tests, summary
// probe, dominance probe. It decides ALLOW only — ok == false means
// "take the walk", which re-derives denials and structural errors with
// byte-identical error values.
func (ep *Epoch) fastCheck(sub acl.Subject, class lattice.Class, path string, modes acl.Mode) (*Node, bool) {
	c := ep.compiled
	if c == nil || !c.fast || sub == nil {
		return nil, false
	}
	e, ok := c.index.get(path)
	if !ok {
		return nil, false
	}
	pid, ok := ep.reg.PrincipalID(sub.SubjectName())
	if !ok {
		return nil, false
	}
	sIdx, sOK := c.dom.Index(class)
	if ep.traversal && e.hasVis {
		if !e.visAllow.Has(pid) {
			return nil, false
		}
		// A zero visClass (an unclassed or cross-lattice ancestor
		// collapsed the Join) is never interned and CanRead of it is
		// false for every subject, so both arms bail — matching the
		// walk, which denies at such an ancestor.
		if sOK && e.visIdx >= 0 {
			if !c.dom.Dominates(sIdx, int(e.visIdx)) {
				return nil, false
			}
		} else if !class.CanRead(e.visClass) {
			return nil, false
		}
	}
	if !c.sumOf(e).Grants(pid, modes) {
		return nil, false
	}
	if sOK && e.objIdx >= 0 {
		if !macguard.FlowAllowsInterned(c.dom, sIdx, int(e.objIdx), modes) {
			return nil, false
		}
	} else if !macguard.FlowAllows(class, *e.node.class, modes) {
		return nil, false
	}
	return e.node, true
}

// fastResolve answers resolveIn from the index: a bare probe for
// unchecked resolution, the precomputed visibility chain for checked.
// Like fastCheck it decides success only.
func (ep *Epoch) fastResolve(sub acl.Subject, class lattice.Class, path string, checked bool) (*Node, bool) {
	c := ep.compiled
	if c == nil {
		return nil, false
	}
	if !checked || !ep.traversal {
		if e, ok := c.index.get(path); ok {
			return e.node, true
		}
		return nil, false
	}
	if !c.fast || sub == nil {
		return nil, false
	}
	e, ok := c.index.get(path)
	if !ok {
		return nil, false
	}
	if !e.hasVis {
		return e.node, true // the root: no traversal checks apply
	}
	pid, ok := ep.reg.PrincipalID(sub.SubjectName())
	if !ok || !e.visAllow.Has(pid) {
		return nil, false
	}
	if sIdx, sOK := c.dom.Index(class); sOK && e.visIdx >= 0 {
		if !c.dom.Dominates(sIdx, int(e.visIdx)) {
			return nil, false
		}
	} else if !class.CanRead(e.visClass) {
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
	e, ok := ep.compiled.index.get(path)
	if !ok {
		return nil, false
	}
	return e.node, true
}

// CompiledAllows runs the compiled fast check: decided is true only
// for a full allow (resolution visibility, DAC summary, and MAC
// dominance all pass); any other outcome reports decided == false and
// the caller must take the walk. The oracle fuzz asserts decided
// allows agree with the walk everywhere.
func (ep *Epoch) CompiledAllows(sub acl.Subject, class lattice.Class, path string, modes acl.Mode) (n *Node, decided bool) {
	return ep.fastCheck(sub, class, path, modes)
}

// CompiledGrants returns the compiled effective mode set of the named
// subject on the node at path — the Summary form of GrantedIn. ok is
// false when the epoch is not compiled, the path is unbound, or the
// subject has no principal ID.
func (ep *Epoch) CompiledGrants(path, subject string) (acl.Mode, bool) {
	if ep.compiled == nil {
		return 0, false
	}
	e, ok := ep.compiled.index.get(path)
	if !ok {
		return 0, false
	}
	pid, ok := ep.reg.PrincipalID(subject)
	if !ok {
		return 0, false
	}
	return ep.compiled.sumOf(e).Granted(pid), true
}

// CompiledStats is the compiled-epoch telemetry: how flushes obtained
// their compiled views, the freeze-cost split, and what the CURRENT
// epoch's view holds and retains. RetainedBytes counts structures
// shared across entries and epochs once (what this epoch actually
// pins); RetainedBytesCloned prices every use site separately — the
// honest upper bound showing what structural sharing saves. Both are
// estimates (map internals are approximated by slot size).
type CompiledStats struct {
	Full        uint64
	Incremental uint64
	Reused      uint64
	// Summaries counts ACL summaries compiled across all builds: at
	// most one per distinct ACL a build touches.
	Summaries uint64

	Entries             int
	DomClasses          int
	Sensitive           int
	RetainedBytes       int64
	RetainedBytesCloned int64

	IndexBuild     telemetry.HistSnapshot
	SummaryCompile telemetry.HistSnapshot
	VisRecompute   telemetry.HistSnapshot
}

// CompiledStats returns the compiled-epoch counters, the freeze-cost
// split histograms, and the current epoch's compiled footprint.
func (s *Server) CompiledStats() CompiledStats {
	st := CompiledStats{
		Full:           s.compFull.Load(),
		Incremental:    s.compIncr.Load(),
		Reused:         s.compReused.Load(),
		Summaries:      s.compSummaries.Load(),
		IndexBuild:     s.compIndexNs.Snapshot(),
		SummaryCompile: s.compSummaryNs.Snapshot(),
		VisRecompute:   s.compVisNs.Snapshot(),
	}
	if c := s.epoch.Load().compiled; c != nil {
		st.Entries = c.index.n
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
// epochs and entries, visibility chains across siblings).
func (c *compiled) retainedBytes() (dedup, cloned int64) {
	c.ret.once.Do(func() {
		seenSum := make(map[*acl.Summary]bool)
		seenSet := make(map[*uint64]bool)
		addSet := func(s acl.IDSet) {
			if len(s) == 0 {
				return
			}
			c.ret.cloned += int64(cap(s)) * 8
			if head := &s[0]; !seenSet[head] {
				seenSet[head] = true
				c.ret.dedup += int64(cap(s)) * 8
			}
		}
		entrySize := int64(unsafe.Sizeof(centry{}))
		c.index.each(func(path string, e *centry) {
			// Map slot: key header + bytes, value pointer, entry.
			slot := int64(len(path)) + 16 + 8 + entrySize
			c.ret.dedup += slot
			c.ret.cloned += slot
			sum := c.sumOf(e)
			if !seenSum[sum] {
				seenSum[sum] = true
				c.ret.dedup += int64(sum.RetainedBytes())
			}
			c.ret.cloned += int64(sum.RetainedBytes())
			addSet(e.effList)
			addSet(e.visAllow)
		})
		// The slot table: one summary pointer and one slot per distinct
		// ACL, plus the ACL→slot map.
		tab := int64(cap(c.sums))*8 + int64(cap(c.tab.slots))*int64(unsafe.Sizeof(aclSlot{})) +
			int64(len(c.tab.ids))*16
		c.ret.dedup += tab
		c.ret.cloned += tab
		for _, sl := range c.tab.slots {
			if len(sl.eff) > 0 && !seenSet[&sl.eff[0]] {
				seenSet[&sl.eff[0]] = true
				c.ret.dedup += int64(cap(sl.eff)) * 8
				c.ret.cloned += int64(cap(sl.eff)) * 8
			}
		}
		dom := int64(c.dom.RetainedBytes())
		c.ret.dedup += dom
		c.ret.cloned += dom
	})
	return c.ret.dedup, c.ret.cloned
}
