package names

import (
	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/monitor"
	"secext/internal/principal"
)

// Epoch is one immutable, fully consistent version of the ENTIRE
// policy: the name tree, the lattice universe, the principal/group
// registry, and the guard stack, published together behind the server's
// single atomic pointer. One atomic load pins everything a decision
// needs; no mediation step ever consults mutable state.
//
// The paper's model (§2) mediates every call and extend against three
// kinds of protection state — ACLs on named services, the MAC lattice,
// and the principal registry. Versioning only one shard of that state
// (the PR-4 snapshot tree) left a correctness soft spot: a verdict
// could read lattice or membership state that changed between the
// snapshot pin and the version bump. The epoch closes it RCU-style:
// version the whole policy, not one shard.
//
// A pinned Epoch guarantees:
//
//   - Every node reachable from Root() is frozen: name, path, kind,
//     ACL, class, payload reference, multilevel flag, and child map
//     never change. Concurrent mutations build new trees; they cannot
//     touch this one.
//   - The tree is internally consistent: a path either resolves fully
//     in this version of the space or not at all. A rename concurrent
//     with resolution is invisible — the walk sees the wholly-old or
//     the wholly-new tree, never a torn mix.
//   - Lattice() is the frozen universe in force when the epoch was
//     published: every class lookup, parse, and format inside the
//     decision reads one version of the level/category tables.
//   - Registry() is the frozen principal/group registry with its
//     transitive membership closure precomputed: every group-ACL entry
//     in the decision is judged against one version of the membership
//     relation, so a concurrent revocation can never split a verdict.
//   - Stack() is the guard stack in force at publication: the decision
//     runs exactly that ordered guard list even while Install/remove
//     republish the pipeline.
//   - Version() is the decision-cache generation for every verdict
//     computed against this epoch. Versions are strictly monotonic
//     across publishes of ANY policy shard, so an entry stamped with an
//     older version can never be served after any part of the policy
//     moved on.
//
// Payloads are shared across epochs by reference: a file's data handle
// is the same object in every epoch that contains the file, so the data
// plane (which does its own locking) is not copied, only the protection
// state is.
type Epoch struct {
	root    *Node
	version uint64
	lat     *lattice.Frozen
	reg     *principal.Frozen // nil until a registry is attached
	stack   *monitor.Stack
	// compiled is the epoch's freeze-time read-side compilation (path
	// index, effective-ACL bitsets, dominance table; see compiled.go).
	// It is nil on the scratch views Apply resolves later edits in
	// (they walk their own accumulated tree), when no registry is
	// attached, and when compilation is disabled; the publisher
	// populates it immediately before the atomic store.
	compiled *compiled

	// owned counts the tree nodes newly allocated for this epoch (not
	// pointer-shared with the parent epoch's tree). The publisher
	// computes it by a pointer-pruned diff walk — O(changed) — so the
	// footprint can report structure sharing without holding parent
	// epochs alive.
	// fp caches the lazily computed footprint (see footprint.go); it is
	// freshly allocated per publication, nil on unpublished views.
	owned int
	fp    *fpCell
}

// Version returns the epoch's version number: the unified
// protection-state generation used by the decision cache.
func (ep *Epoch) Version() uint64 { return ep.version }

// Root returns the epoch's name-tree root node.
func (ep *Epoch) Root() *Node { return ep.root }

// Lattice returns the frozen lattice universe pinned in this epoch.
func (ep *Epoch) Lattice() *lattice.Frozen { return ep.lat }

// Registry returns the frozen principal/group registry pinned in this
// epoch, or nil when the server has no registry attached.
func (ep *Epoch) Registry() *principal.Frozen { return ep.reg }

// Stack returns the guard stack pinned in this epoch.
func (ep *Epoch) Stack() *monitor.Stack { return ep.stack }

// Membership returns the epoch's frozen membership relation for ACL
// evaluation, or nil when no registry is attached. Explain hooks use
// it to re-evaluate entries exactly as the guards did.
func (ep *Epoch) Membership() acl.Membership { return ep.members() }

// Lookup walks to the node bound at path inside this epoch with NO
// access or visibility checks — structural resolution only. It is an
// explain hook: provenance needs to inspect nodes (their ACLs and
// classes) that the asking subject may not itself be able to see.
// Production mediation never calls it.
func (ep *Epoch) Lookup(path string) (*Node, error) {
	return resolveIn(ep, nil, lattice.Class{}, path, false)
}

// CheckIn is the uncached full check pinned to this epoch — identical
// to Server.CheckAccessIn. Explain re-runs the authoritative decision
// through it so the verdict it reports is the one mediation computes,
// byte for byte.
func (ep *Epoch) CheckIn(sub acl.Subject, class lattice.Class, path string, modes acl.Mode) (*Node, error) {
	return checkAccessIn(ep, sub, class, path, modes)
}

// members returns the epoch's membership relation for ACL evaluation,
// or a nil interface when no registry is attached (guards then fall
// back to the subject's own MemberOf). The explicit nil check matters:
// storing a typed nil pointer in the interface would defeat the
// guards' fallback test.
func (ep *Epoch) members() acl.Membership {
	if ep.reg == nil {
		return nil
	}
	return ep.reg
}

// Walk visits every node in the epoch's name tree in depth-first order
// with no access checks, calling fn with each node's path and node.
// Iteration is deterministic: children are visited in lexicographic
// name order (the children slices are name-sorted), so two walks of
// equal trees produce identical sequences — and the walk allocates
// nothing per node. No lock is held while fn runs — fn may call back
// into the Server freely; it keeps observing this epoch regardless of
// concurrent mutations.
func (ep *Epoch) Walk(fn func(path string, n *Node)) {
	var visit func(n *Node)
	visit = func(n *Node) {
		fn(n.path, n)
		for _, cr := range n.children {
			visit(cr.node)
		}
	}
	visit(ep.root)
}

// Size returns the number of nodes in the epoch's name tree, including
// the root.
func (ep *Epoch) Size() int {
	n := 0
	ep.Walk(func(string, *Node) { n++ })
	return n
}

// Consistent reports whether the epoch is internally consistent: every
// node's class is expressible in the epoch's lattice, and every
// principal or group named by a node's ACL exists in the epoch's
// registry (when one is attached). The fuzz harness drives random
// mutation interleavings and asserts this on every pinned epoch — a
// torn publication (new tree with an old lattice or registry) would
// fail it. On failure the offending path and reason are returned.
func (ep *Epoch) Consistent() (ok bool, path, why string) {
	ok = true
	ep.Walk(func(p string, n *Node) {
		if !ok {
			return
		}
		if !ep.lat.Contains(*n.class) {
			ok, path, why = false, p, "class not in epoch lattice"
			return
		}
		if ep.reg == nil {
			return
		}
		for _, e := range n.acl.Entries() {
			switch e.Kind {
			case acl.Principal:
				if !ep.reg.HasPrincipal(e.Who) {
					ok, path, why = false, p, "acl principal "+e.Who+" not in epoch registry"
					return
				}
			case acl.Group:
				if !ep.reg.HasGroup(e.Who) {
					ok, path, why = false, p, "acl group "+e.Who+" not in epoch registry"
					return
				}
			}
		}
	})
	return ok, path, why
}
