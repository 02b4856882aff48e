package provenance

import (
	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/monitor"
	"secext/internal/monitor/macguard"
	"secext/internal/names"
	"secext/internal/principal"
)

// ExplainCheck re-evaluates the decision (sub, path, modes) against
// the pinned epoch and returns the full working. The Allowed/Reason
// fields are authoritative — they come from the exact uncached
// production check (Epoch.CheckIn) — while the traversal, ACL, guard,
// and MAC sections are instrumented re-runs of each stage.
//
// ExplainCheck never consults or fills the decision cache and is
// never audited as an access: callers gate it behind an administrative
// surface (the remote EXPLAIN command, /debug/explain), not behind
// mediation.
func ExplainCheck(ep *names.Epoch, sub Subject, path string, modes acl.Mode) *Explanation {
	class := sub.Class()
	ex := &Explanation{
		EpochVersion: ep.Version(),
		Subject:      sub.SubjectName(),
		SubjectClass: class.String(),
		Path:         path,
		Modes:        modes.String(),
		ShortCircuit: -1,
	}
	// Authoritative verdict first: the production check, pinned to ep.
	if _, err := ep.CheckIn(sub, class, path, modes); err != nil {
		ex.Reason = err.Error()
	} else {
		ex.Allowed = true
	}
	// Route: would the compiled read side have decided this, or does
	// the production path take the walk?
	ex.Route = "walk"
	if _, _, decided := ep.CompiledCheck(sub, class, path, modes); decided {
		ex.Route = "compiled"
	}
	members := ep.Membership()
	stack := ep.Stack()
	// Traversal visibility: every interior node on the way to the
	// target, judged exactly as resolution judges it (list + MAC read,
	// OpTraverse).
	for _, prefix := range ancestors(path) {
		n, err := ep.Lookup(prefix)
		if err != nil {
			break // unbound below here; the resolve section reports it
		}
		step := TraversalStep{Path: prefix, Class: n.Class().String()}
		if !ep.TraversalChecks() {
			step.Visible = true
			step.Reason = "traversal checks disabled"
		} else {
			v := stack.Check(monitor.Request{
				Subject: sub, Class: class, Object: object(n, prefix),
				Modes: acl.List, Members: members, Op: monitor.OpTraverse,
			})
			step.Visible = v.Allow
			step.Reason = v.Reason
		}
		ex.Traversal = append(ex.Traversal, step)
	}
	n, err := ep.Lookup(path)
	if err != nil {
		ex.ResolveError = err.Error()
		return ex
	}
	ex.Resolved = true
	// Discretionary working: which entries matched and why.
	a := n.ACL()
	aex := a.ExplainIn(sub, modes, members)
	rep := &ACLReport{
		ACL:     a.String(),
		Allowed: modeStr(aex.Allowed),
		Denied:  modeStr(aex.Denied),
		Granted: modeStr(aex.Granted),
		Want:    aex.Want.String(),
		Verdict: aex.Verdict,
	}
	for _, e := range aex.Matched {
		me := MatchedEntry{Entry: e.String(), Deny: e.Deny, Modes: e.Modes.String()}
		if e.Kind == acl.Group {
			me.Chain = membershipChain(ep.Registry(), ex.Subject, e.Who)
		}
		rep.Matched = append(rep.Matched, me)
	}
	ex.ACL = rep
	// Every guard's verdict, with the production short-circuit point
	// marked instead of silently stopping there.
	vs, sc := stack.ExplainOp(monitor.Request{
		Subject: sub, Class: class, Object: object(n, path),
		Modes: modes, Members: members, Op: monitor.OpAccess,
	})
	ex.ShortCircuit = sc
	for i, v := range vs {
		ex.Guards = append(ex.Guards, GuardReport{
			Guard: v.Guard, Allow: v.Allow, Reason: v.Reason, Decisive: i == sc,
		})
	}
	ex.MAC = macReport(class, n.Class(), modes)
	return ex
}

// ancestors returns the interior prefixes of path in walk order: "/"
// first, then each deeper container, excluding path itself. The root
// has no ancestors.
func ancestors(path string) []string {
	if path == "/" {
		return nil
	}
	out := []string{"/"}
	for i := 1; i < len(path); i++ {
		if path[i] == '/' {
			out = append(out, path[:i])
		}
	}
	return out
}

// object mirrors the Object the production path hands guards for node
// n at path (names.describe); the ACL clone is fine for pure guards.
func object(n *names.Node, path string) monitor.Object {
	return monitor.Object{Path: path, ACL: n.ACL(), Class: n.Class(), Multilevel: n.Multilevel()}
}

// membershipChain finds one shortest chain connecting the subject to
// the group a matched ACL entry names: group first, then each
// intermediate subgroup, then the subject. BFS over the registry's
// direct-member edges; nil when the registry is absent or no chain
// exists (the entry then matched via the subject's own MemberOf).
func membershipChain(reg *principal.Frozen, subject, group string) []string {
	if reg == nil {
		return nil
	}
	type item struct {
		group string
		chain []string
	}
	seen := map[string]bool{group: true}
	queue := []item{{group, []string{"@" + group}}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		members, err := reg.Members(cur.group)
		if err != nil {
			continue
		}
		for _, m := range members {
			if len(m) > 1 && m[0] == '@' {
				sg := m[1:]
				if !seen[sg] {
					seen[sg] = true
					chain := append(append([]string{}, cur.chain...), m)
					queue = append(queue, item{sg, chain})
				}
			} else if m == subject {
				return append(append([]string{}, cur.chain...), subject)
			}
		}
	}
	return nil
}

// macReport replays the mandatory flow rules with both dominance
// directions and both classes named. The reason is macguard's own.
func macReport(sc, oc lattice.Class, modes acl.Mode) *MACReport {
	const readGroup = acl.Read | acl.List | acl.Execute | acl.Extend
	const writeGroup = acl.Write | acl.Delete | acl.Administrate
	m := &MACReport{
		SubjectClass:           sc.String(),
		ObjectClass:            oc.String(),
		SubjectDominatesObject: sc.Dominates(oc),
		ObjectDominatesSubject: oc.Dominates(sc),
		ReadModes:              modeStr(modes & readGroup),
		WriteModes:             modeStr(modes & writeGroup),
		AppendModes:            modeStr(modes & acl.WriteAppend),
		Reason:                 macguard.FlowDenial(sc, oc, modes),
	}
	m.Allow = m.Reason == ""
	return m
}

// modeStr renders a mode set, empty string for the empty set (so JSON
// omitempty drops it).
func modeStr(m acl.Mode) string {
	if m == acl.None {
		return ""
	}
	return m.String()
}
