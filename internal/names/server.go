package names

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"secext/internal/acl"
	"secext/internal/decision"
	"secext/internal/lattice"
	"secext/internal/monitor"
	"secext/internal/monitor/dacguard"
	"secext/internal/monitor/macguard"
	"secext/internal/principal"
	"secext/internal/telemetry"
)

// ErrNotEmpty is returned when unbinding a node that still has children.
var ErrNotEmpty = fmt.Errorf("names: node not empty")

// Server is the central name server: the single facility that names
// every object in the system (§2.3). It is pure mechanism — resolution,
// binding, storage — and delegates every policy decision to an injected
// monitor.Pipeline: the server resolves a name, describes the node it
// found (ACL, class, multilevel flag), and lets the guard stack decide.
// It is safe for concurrent use.
//
// Concurrency design (RCU over the WHOLE policy): the server publishes
// an immutable Epoch — name tree, frozen lattice, frozen
// principal/group registry, guard stack — through one atomic pointer.
// Readers (Resolve, CheckAccess, List, GetACL, Walk) pin the current
// Epoch with a single atomic load and run the entire decision against
// it with zero locks; no mediation step ever consults mutable state.
// Writers serialize on a writer-only mutex, derive a successor epoch
// (cloning the tree spine for name mutations, swapping the frozen
// lattice/registry/stack for the typed transitions below), and publish
// it at version+1. The epoch version IS the decision-cache generation —
// one clock for "any policy shard changed" and "cached verdicts are
// dead".
//
// Epoch transitions are typed: name mutations come through Apply (and
// the bulk BindSubtreeUnchecked); the lattice and registry push their
// freshly frozen state through their publish hooks (wired at
// construction/attachment; PublishRegistry publishes one directly);
// guard installs push
// the new stack through PublishStack. There is no untyped "invalidate
// everything" entry point — every version bump names the shard that
// moved.
//
// Checked operations take the requesting subject (for the DAC decision)
// and the subject's current security class (for the MAC decision).
// Unchecked operations (a nil subject) exist for bootstrap and for the
// reference monitor's own bookkeeping; nothing outside internal/core
// should use them. The reference monitor can observe unchecked
// operations via SetAdminHook so that even mediation bypasses leave an
// audit trail.
type Server struct {
	// epoch is the atomically published current policy epoch. Readers
	// load it once per operation and never look back; writeMu serializes
	// the load-derive-publish sequence of every transition (publish.go).
	epoch   atomic.Pointer[Epoch]
	writeMu sync.Mutex

	lat *lattice.Lattice

	// publishes counts epoch publications after boot: the writer-side
	// telemetry counter. The typed counters below split it by the shard
	// that moved; a replicated apply carrying a stack moves two shards
	// in one publication, so the typed counters may sum to more than
	// publishes. flushLat is the distribution of one publication's
	// latency.
	publishes    atomic.Uint64
	namePubs     atomic.Uint64
	latticePubs  atomic.Uint64
	registryPubs atomic.Uint64
	stackPubs    atomic.Uint64
	flushLat     telemetry.Histogram

	// pipe is the writer-side policy pipeline: Install and remove
	// mutate it, and every newly published stack lands in the next
	// epoch via the change hook. The READ side never touches it — a
	// pinned epoch carries the stack to run.
	pipe atomic.Pointer[monitor.Pipeline]

	// adminHook, when set, observes every unchecked (policy-bypassing)
	// operation: op is a short operation name, path the affected name,
	// err the structural outcome. The hook runs after the operation has
	// published its epoch, with no server lock held, so it may call
	// back into the server freely (including ResolveUnchecked — but a
	// hook that unconditionally re-enters an unchecked operation must
	// guard against its own recursion).
	adminHook atomic.Pointer[func(op, path string, err error)]

	// compiledOff disables epoch compilation (SetCompiledEpochs); it is
	// guarded by writeMu and read only by the publisher. The counters
	// and histograms below are the freeze-cost split: how each
	// publication obtained its compiled view (full build, incremental
	// patch, wholesale reuse) and where build time went (ACL summary
	// compilation, effective/visibility bitset recomputation, and the
	// remainder — index walk, copy-on-write shard clones, dominance
	// interning). compSummaries counts the summaries compiled.
	compiledOff   bool
	compFull      atomic.Uint64
	compIncr      atomic.Uint64
	compReused    atomic.Uint64
	compSummaries atomic.Uint64
	compIndexNs   telemetry.Histogram
	compSummaryNs telemetry.Histogram
	compVisNs     telemetry.Histogram

	// cache, when set, memoizes CheckAccess verdicts keyed by
	// (subject, class, path, modes) and stamped with the epoch version
	// the verdict was computed against. A hit requires the stamp to
	// equal the pinned epoch's version, so it is provably computed
	// against the current tree AND lattice AND registry AND guard
	// stack — the epoch bundles all four. Install it with
	// SetDecisionCache before the server sees concurrent traffic; only
	// the reference monitor should do so (cached verdicts assume
	// subject names are canonical, which core guarantees). A nil cache
	// means every check takes the full path, as does an epoch whose
	// stack contains a stateful guard (whose verdicts must not be
	// memoized).
	cache atomic.Pointer[decision.Cache]

	// journal retains the last journalCap epoch transitions (version,
	// shards, freeze delta-bases, compile kind and cost, publish
	// latency) in a lock-free ring; Journal snapshots it without
	// stopping writers.
	journal epochJournal

	// transHook, when set, observes every epoch publication as a
	// (parent, successor) pair, called by the publisher under writeMu
	// so transitions arrive in strict version order. Replication wires it
	// to the delta publisher; the hook must only enqueue and return.
	// Guarded by writeMu.
	transHook func(prev, next *Epoch)

	// Shadow divergence monitor: every traced check (the telemetry
	// sampler picks 1/N of all checks) additionally consults the
	// compiled fast path and compares its answer against the
	// authoritative walk's. shadowChecks counts comparisons, divergences
	// counts disagreements — a nonzero divergence count means the
	// compiled structures allowed what the walk denied, denied what it
	// allowed, or denied with other text, which is a correctness alarm
	// (the walk's verdict is always the one enforced).
	shadowChecks atomic.Uint64
	divergences  atomic.Uint64

	// strings interns path strings (component names are substrings of
	// the interned paths) and acls dedupes ACL values as they enter the
	// tree; see intern.go. Both are internally synchronized.
	strings interner
	acls    aclCanon
	classes classCanon
}

// NewServer creates a name space whose root carries the given ACL and
// class, guarded by the default [dac, mac] pipeline. The server wires
// itself as the lattice's publish hook: each DefineLevel/DefineCategory
// lands its frozen universe in a new epoch. A lattice therefore backs
// one server; constructing a second server over the same lattice
// re-points the hook at the newer server.
func NewServer(lat *lattice.Lattice, rootACL *acl.ACL, rootClass lattice.Class) *Server {
	if rootACL == nil {
		rootACL = acl.New()
	}
	s := &Server{lat: lat}
	root := &Node{
		path:  "/",
		kind:  KindRoot,
		acl:   s.acls.canon(rootACL),
		class: s.classes.canon(rootClass),
	}
	pipe := monitor.NewPipeline(dacguard.New(), macguard.New())
	s.pipe.Store(pipe)
	s.epoch.Store(&Epoch{
		root:    root,
		version: 1,
		lat:     lat.Freeze(),
		stack:   pipe.Current(),
		owned:   1,
		fp:      &fpCell{},
	})
	lat.SetPublishHook(s.publishLattice)
	pipe.SetChangeHook(func(st *monitor.Stack) { s.PublishStack(st) })
	return s
}

// Lattice returns the lattice node classes are drawn from.
func (s *Server) Lattice() *lattice.Lattice { return s.lat }

// Current returns the currently published epoch: one atomic load, no
// locks. The returned epoch is immutable and stays valid (and
// internally consistent) forever; use it to run several reads against
// one version of the whole policy.
func (s *Server) Current() *Epoch { return s.epoch.Load() }

// Version returns the current epoch's version: the unified
// protection-state generation (see Epoch.Version).
func (s *Server) Version() uint64 { return s.epoch.Load().version }

// Publishes returns the number of epochs published since boot — the
// writer-side counter telemetry exposes.
func (s *Server) Publishes() uint64 { return s.publishes.Load() }

// Stats returns the name server's telemetry: the current epoch's
// version, the publication counters by the shard that drove them, the
// publication latency, the compiled-epoch counters, the shadow
// divergence monitor (a nonzero divergence count is a correctness
// alarm: the compiled read side disagreed with the walk, in either
// direction or in the denial text, and the walk's verdict was
// enforced), the journal's fill, and the current epoch's footprint
// with the intern tables' counters.
func (s *Server) Stats() telemetry.NamesStats {
	fp := s.epoch.Load().Footprint()
	s.strings.stats(&fp)
	s.acls.stats(&fp)
	return telemetry.NamesStats{
		Version:             s.Version(),
		Publishes:           s.Publishes(),
		NameTransitions:     s.namePubs.Load(),
		LatticeTransitions:  s.latticePubs.Load(),
		RegistryTransitions: s.registryPubs.Load(),
		StackTransitions:    s.stackPubs.Load(),
		FlushLatency:        s.flushLat.Snapshot(),
		CompiledStats:       s.CompiledStats(),
		ShadowChecks:        s.shadowChecks.Load(),
		Divergences:         s.divergences.Load(),
		JournalRecords:      s.journal.recorded(),
		Footprint:           fp,
	}
}

// PublishRegistry is the typed epoch transition for the principal/group
// shard: it publishes f as the epoch's registry and returns the version
// the publication landed in. It is also the registry's publish hook
// (wired by AttachRegistry), run under the registry's writer mutex, so
// a revocation reaches every future decision before the revoker
// regains control. The hook delivers views in version order, but a
// direct call can race it with an older Freeze: a view no newer than
// the epoch's own registry publishes nothing and returns the current
// version, so the registry shard never moves backwards and a stale
// call empties no cache and ships no replica delta. A nil f is ignored
// (returns 0).
func (s *Server) PublishRegistry(f *principal.Frozen) uint64 {
	if f == nil {
		return 0
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if cur := s.epoch.Load(); cur.reg != nil && cur.reg.Registry() == f.Registry() && f.Version() <= cur.reg.Version() {
		return cur.version
	}
	return s.publishLocked(shardRegistry, "", 0, func(e *Epoch) { e.reg = f })
}

// PublishStack is the typed epoch transition for the guard-stack shard:
// it publishes st as the epoch's stack and returns the version the
// publication landed in. The pipeline's change hook (wired by
// NewServer and SetPipeline) calls it on every Install/remove. A nil st
// is ignored (returns 0).
func (s *Server) PublishStack(st *monitor.Stack) uint64 {
	if st == nil {
		return 0
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.publishLocked(shardStack, "", 0, func(e *Epoch) { e.stack = st })
}

// AttachRegistry wires the principal/group registry into the policy
// epoch: the registry's publish hook becomes PublishRegistry, and the
// registry's current frozen state is published immediately so the very
// next decision pins it. Call during
// setup, before the server sees concurrent traffic; only the reference
// monitor should attach a registry (pinned membership assumes subject
// names are canonical).
func (s *Server) AttachRegistry(reg *principal.Registry) {
	if reg == nil {
		return
	}
	reg.SetPublishHook(s.PublishRegistry)
	s.PublishRegistry(reg.Freeze())
}

// Pipeline returns the monitor pipeline the server consults.
func (s *Server) Pipeline() *monitor.Pipeline { return s.pipe.Load() }

// SetPipeline replaces the policy pipeline. Call it during setup,
// before the server sees concurrent traffic; a nil pipeline is
// rejected (a server without policy would fail open). The new
// pipeline's current stack is published as a typed stack transition,
// so cached verdicts from the old stack are dead.
func (s *Server) SetPipeline(p *monitor.Pipeline) {
	if p == nil {
		return
	}
	old := s.pipe.Load()
	if old != nil && old != p {
		old.SetChangeHook(nil)
	}
	p.SetChangeHook(func(st *monitor.Stack) { s.PublishStack(st) })
	s.pipe.Store(p)
	s.PublishStack(p.Current())
}

// SetTransitionHook installs an observer for epoch publications; nil
// removes it. The hook receives every publication as a (parent,
// successor) pair, in strict version order, while the publisher's
// mutex is held — it must only enqueue the pair and return (the
// replication fan-out does its diffing and encoding on its own
// goroutine). Only the replication publisher should install it.
func (s *Server) SetTransitionHook(fn func(prev, next *Epoch)) {
	s.writeMu.Lock()
	s.transHook = fn
	s.writeMu.Unlock()
}

// SetAdminHook installs an observer for unchecked operations; nil
// removes it. Call during setup. The hook runs after the operation
// published, with no lock held, so it may call back into the server.
func (s *Server) SetAdminHook(fn func(op, path string, err error)) {
	if fn == nil {
		s.adminHook.Store(nil)
		return
	}
	s.adminHook.Store(&fn)
}

// admin reports one unchecked operation to the hook, if any. Called
// after the operation's epoch (if any) is published and after writeMu
// is released, so the hook observes the post-operation state.
func (s *Server) admin(op, path string, err error) {
	if fn := s.adminHook.Load(); fn != nil {
		(*fn)(op, path, err)
	}
}

// SetDecisionCache installs (or, with nil, removes) the decision cache
// consulted by CheckAccess. Call it during setup, before the server sees
// concurrent traffic. Only the reference monitor should install a cache:
// cached verdicts are keyed by subject *name*, which is sound only when
// every subject name maps to one identity — core's registry guarantees
// that; arbitrary acl.Subject implementations do not.
func (s *Server) SetDecisionCache(c *decision.Cache) { s.cache.Store(c) }

// DecisionCache returns the installed decision cache (nil if none).
func (s *Server) DecisionCache() *decision.Cache { return s.cache.Load() }

// SetCompiledEpochs toggles freeze-time compilation of read-side
// structures (path index, effective-ACL bitsets, dominance table; see
// compiled.go). It is on by default; experiments turn it off to
// measure the spine walk. The toggle republishes the current tree, so
// it takes effect at a new epoch version: off strips the compiled view
// from the next publication onward, on compiles a fresh one.
func (s *Server) SetCompiledEpochs(on bool) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.compiledOff = !on
	s.publishTreeLocked(s.epoch.Load().root)
}

// describe builds the guard stack's view of node n at path. The node
// comes from a pinned epoch, so the description (ACL, class, multilevel
// flag) is frozen protection state: guards can never observe a torn
// half-applied mutation.
func describe(n *Node, path string) monitor.Object {
	return monitor.Object{Path: path, ACL: n.acl, Class: *n.class, Multilevel: n.multilevel}
}

// checkNode consults the epoch's pinned guard stack for the requested
// modes on node n, which lives at path. Group-ACL entries resolve
// against the epoch's pinned membership relation.
func checkNode(ep *Epoch, n *Node, path string, sub acl.Subject, class lattice.Class, modes acl.Mode, op monitor.Op) error {
	v := ep.stack.Check(monitor.Request{
		Subject: sub, Class: class, Object: describe(n, path), Modes: modes,
		Members: ep.members(), Op: op,
	})
	if !v.Allow {
		return &DeniedError{Path: path, Op: modes.String(), Why: v.Reason}
	}
	return nil
}

// parentOf returns the parent path of a canonical absolute path.
func parentOf(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// resolveIn walks the path inside the pinned epoch, applying traversal
// checks to every interior node strictly above the target when checked.
// No lock is held at any point. The walk slices components out of path
// in place instead of calling SplitPath, so resolution allocates
// nothing on success; the per-level prefix handed to the guard stack is
// a slice of path, not a rebuilt string.
func resolveIn(ep *Epoch, sub acl.Subject, class lattice.Class, path string, checked bool) (*Node, error) {
	if err := ValidPath(path); err != nil {
		return nil, err
	}
	// Compiled epochs answer resolution from the path index: a bare
	// probe when no checks apply, the precomputed visibility chain when
	// they do. The index decides success only — a miss (unbound path,
	// failing visibility, non-default stack, uncompiled epoch) falls
	// through to the walk, which derives the exact error.
	if n, ok := ep.fastResolve(sub, class, path, checked); ok {
		return n, nil
	}
	cur := ep.root
	// Invariant: rest is the unconsumed suffix of path after the slash
	// that follows the current node's name.
	rest := path[1:]
	for rest != "" {
		part := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			part, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if checked {
			// Visibility: walking through a node requires list on it
			// and MAC read of it (§2.3: access control determines
			// which names are visible). The node's path is the consumed
			// prefix (the root's is "/").
			prefix := path[:len(path)-len(part)-len(rest)-1]
			if rest != "" {
				prefix = path[:len(path)-len(part)-len(rest)-2]
			}
			if prefix == "" {
				prefix = "/"
			}
			if err := checkNode(ep, cur, prefix, sub, class, acl.List, monitor.OpTraverse); err != nil {
				return nil, err
			}
		}
		next := cur.child(part)
		if next == nil {
			// Report the prefix up to and including the missing name.
			consumed := len(path) - len(rest)
			if rest != "" {
				consumed-- // drop the trailing slash
			}
			return nil, fmt.Errorf("%w: %s", ErrNotFound, path[:consumed])
		}
		cur = next
	}
	return cur, nil
}

// Resolve walks to the node at path, enforcing visibility along the way.
// The target node itself is not checked; callers apply the operation-
// specific check via CheckAccess or a higher-level operation.
func (s *Server) Resolve(sub acl.Subject, class lattice.Class, path string) (*Node, error) {
	return resolveIn(s.epoch.Load(), sub, class, path, true)
}

// ResolveUnchecked walks to the node at path with no access checks.
func (s *Server) ResolveUnchecked(path string) (*Node, error) {
	n, err := resolveIn(s.epoch.Load(), nil, lattice.Class{}, path, false)
	s.admin("resolve-unchecked", path, err)
	return n, err
}

// CheckAccess resolves path and verifies that the subject holds the
// requested modes on the target under the guard stack. It returns the
// node on success and the deciding epoch's version either way, so
// callers (the reference monitor's audit path) can stamp the decision
// with the exact protection-state generation it was computed against —
// a cache hit included, since a hit requires the stamp to equal the
// pinned version.
//
// The whole decision — cache probe, resolve, guard evaluation — runs
// against one pinned epoch, so it is computed against exactly one
// published version of the tree, the lattice, the registry, and the
// guard stack; the read side acquires no mutex anywhere. With a
// decision cache installed and a pure (cacheable) stack, a repeated
// check is served from the cache with zero locks and zero allocations;
// the full check runs only on a miss, and its verdict is published
// stamped with the pinned epoch's version, so a mutation of ANY policy
// shard racing with the check leaves the entry unreachable the moment
// it lands.
//
// tr is the request's trace, nil when the telemetry sampler did not
// select it. A traced check records the pinned epoch version, the
// cache probe, the resolution and each guard's verdict as spans, and
// doubles as the shadow divergence monitor (see shadowCompare); it
// returns the walk's decision, which the untraced path must equal.
func (s *Server) CheckAccess(sub acl.Subject, class lattice.Class, path string, modes acl.Mode, tr *telemetry.ActiveTrace) (*Node, uint64, error) {
	ep := s.epoch.Load()
	if tr != nil {
		tr.EpochVersion(ep.version)
	}
	cache := s.cache.Load()
	cached := cache != nil && ep.stack.Cacheable()
	var name string
	if cached {
		name = sub.SubjectName()
		var start time.Time
		if tr != nil {
			start = time.Now()
		}
		node, err, ok := cache.Lookup(ep.version, name, class, path, modes)
		if tr != nil {
			tr.CacheProbe(ok, ep.version, time.Since(start))
		}
		if ok {
			if err != nil {
				return nil, ep.version, err
			}
			return node.(*Node), ep.version, nil
		}
	} else if cache != nil {
		tr.Span("cache-skip", "stateful guard", 0)
	}
	n, err := checkAccessIn(ep, sub, class, path, modes, tr)
	if tr != nil {
		s.shadowCompare(ep, sub, class, path, modes, n, err, tr)
	}
	// Cache grants and access denials only. Structural errors
	// (ErrNotFound, ErrBadPath) are cheap to recompute and their error
	// values carry no security weight worth pinning.
	if cached && (err == nil || errors.Is(err, ErrDenied)) {
		cache.StoreAt(ep.version, name, class, path, modes, n, err)
	}
	return n, ep.version, err
}

// CheckAccessAt is CheckAccess untraced, kept for bench/.
func (s *Server) CheckAccessAt(sub acl.Subject, class lattice.Class, path string, modes acl.Mode) (*Node, uint64, error) {
	return s.CheckAccess(sub, class, path, modes, nil)
}

// CheckAccessIn is the uncached full check pinned to a caller-chosen
// epoch: resolve inside ep, then verify the target under ep's guard
// stack. Tests and experiments use it to prove a decision was computed
// against one specific published version.
func (s *Server) CheckAccessIn(ep *Epoch, sub acl.Subject, class lattice.Class, path string, modes acl.Mode) (*Node, error) {
	return checkAccessIn(ep, sub, class, path, modes, nil)
}

// checkAccessIn is the uncached check: resolve inside the pinned epoch,
// then verify the target. Untraced (tr == nil), on a compiled epoch
// with the default stack the whole decision — resolution visibility,
// DAC, MAC — is answered from the freeze-time structures (one index
// probe plus a few bitset tests), denials included; everything the fast
// path cannot decide takes the walk. Traced, it takes the walk
// unconditionally, recording the resolve duration as a span and each
// guard's verdict individually, so the shadow compare has an
// authoritative answer to hold the compiled one against.
func checkAccessIn(ep *Epoch, sub acl.Subject, class lattice.Class, path string, modes acl.Mode, tr *telemetry.ActiveTrace) (*Node, error) {
	var start time.Time
	if tr == nil {
		if n, err, ok := ep.fastCheck(sub, class, path, modes); ok {
			return n, err
		}
	} else {
		start = time.Now()
	}
	n, err := resolveIn(ep, sub, class, path, true)
	if tr != nil {
		tr.Span("resolve", "", time.Since(start))
	}
	if err != nil {
		return nil, err
	}
	req := monitor.Request{
		Subject: sub, Class: class, Object: describe(n, path), Modes: modes,
		Members: ep.members(), Op: monitor.OpAccess,
	}
	var v monitor.Verdict
	if tr == nil {
		v = ep.stack.Check(req)
	} else {
		v = ep.stack.CheckTraced(req, tr)
	}
	if !v.Allow {
		return nil, &DeniedError{Path: path, Op: modes.String(), Why: v.Reason}
	}
	return n, nil
}

// shadowCompare is the shadow divergence monitor. It runs on traced
// checks only — the 1/N the telemetry sampler selects — after the walk
// has decided (n, werr): it consults the compiled fast path and
// compares, in both directions: a compiled verdict that differs from
// the walk's, or a compiled denial whose text differs, is a divergence.
// The walk's verdict is always the one returned.
func (s *Server) shadowCompare(ep *Epoch, sub acl.Subject, class lattice.Class, path string, modes acl.Mode, n *Node, werr error, tr *telemetry.ActiveTrace) {
	if ep.compiled == nil || sub == nil {
		return
	}
	s.shadowChecks.Add(1)
	fn, ferr, decided := ep.fastCheck(sub, class, path, modes)
	if decided && (verdictText(ferr) != verdictText(werr) || ferr == nil && fn != n) {
		// The compiled structures disagree with the authoritative
		// evaluation. Alarm, but enforce the walk's verdict.
		s.divergences.Add(1)
		tr.Span("shadow", "DIVERGENCE: compiled="+verdictText(ferr)+" walk="+verdictText(werr), 0)
	} else {
		tr.Span("shadow", "no divergence", 0)
	}
}

// verdictText renders a check's outcome for the shadow compare: "allow",
// or the error's text.
func verdictText(err error) string {
	if err == nil {
		return "allow"
	}
	return err.Error()
}

// List returns the names bound under path, requiring list mode and MAC
// read on the target.
func (s *Server) List(sub acl.Subject, class lattice.Class, path string) ([]string, error) {
	ep := s.epoch.Load()
	n, err := resolveIn(ep, sub, class, path, true)
	if err != nil {
		return nil, err
	}
	if n.kind.Leaf() {
		return nil, fmt.Errorf("%w: %s is a %s", ErrNotLeaf, path, n.kind)
	}
	if err := checkNode(ep, n, path, sub, class, acl.List, monitor.OpAccess); err != nil {
		return nil, err
	}
	return n.childNames(), nil
}

// BindSpec describes a new node for a Bind edit.
type BindSpec struct {
	Name    string        // final path component
	Kind    Kind          // node kind
	ACL     *acl.ACL      // nil means empty (fail-closed)
	Class   lattice.Class // security class of the new node
	Payload any           // service implementation, file handle, etc.
	// Multilevel marks the new node as a multilevel container; see
	// Node.Multilevel.
	Multilevel bool
}

// GetACL returns a copy of the node's ACL. Reading the protection state
// requires read or administrate mode (the AnyOf disjunction) and MAC
// read.
func (s *Server) GetACL(sub acl.Subject, class lattice.Class, path string) (*acl.ACL, error) {
	ep := s.epoch.Load()
	n, err := resolveIn(ep, sub, class, path, true)
	if err != nil {
		return nil, err
	}
	if v := ep.stack.Check(monitor.Request{
		Subject: sub, Class: class, Object: describe(n, path),
		Modes: acl.Read, AnyOf: acl.Read | acl.Administrate,
		Members: ep.members(), Op: monitor.OpAccess,
	}); !v.Allow {
		return nil, &DeniedError{Path: path, Op: "get-acl", Why: v.Reason}
	}
	return n.acl.Clone(), nil
}

// ACLOf returns a copy of a node's ACL with no checks (monitor use).
func (s *Server) ACLOf(path string) (*acl.ACL, error) {
	n, err := resolveIn(s.epoch.Load(), nil, lattice.Class{}, path, false)
	if err != nil {
		return nil, err
	}
	return n.acl.Clone(), nil
}

// Walk visits every node in the current epoch in depth-first order
// with no access checks, calling fn with each node's path and node.
// Iteration is deterministic (children in lexicographic name order) and
// holds no lock: fn may call back into the server, including mutating
// it — the walk keeps observing the epoch pinned when it started.
func (s *Server) Walk(fn func(path string, n *Node)) {
	s.epoch.Load().Walk(fn)
}

// Size returns the number of nodes in the current epoch, including
// the root.
func (s *Server) Size() int {
	return s.epoch.Load().Size()
}
