// Package macguard is the mandatory half of the default guard stack:
// the lattice flow rules of §2.2, ported verbatim out of the name
// server. It runs after dacguard in the default pipeline, giving the
// paper's layering — a request must survive the discretionary decision
// before the mandatory one is consulted.
package macguard

import (
	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/monitor"
)

// name is the guard's identity in verdicts.
const name = "mac"

// The reasons the flow rules deny an OpAccess/OpTraverse request with,
// in the order flow tests them. The epoch's compiled read path and the
// provenance engine report the same constants, so their text cannot
// drift from the guard's.
const (
	WhyReadUp    = "mac: subject does not dominate object (no read up)"
	WhyWriteDown = "mac: object does not dominate subject (no write down)"
	WhyAppend    = "mac: append would write down"
)

const (
	readGroup  = acl.Read | acl.List | acl.Execute | acl.Extend
	writeGroup = acl.Write | acl.Delete | acl.Administrate
)

// Guard applies the Bell-LaPadula-style flow rules to the request. It
// is stateless and safe for concurrent use.
type Guard struct{}

// New returns the mandatory guard.
func New() *Guard { return &Guard{} }

// Name implements monitor.Guard.
func (*Guard) Name() string { return name }

// Check implements monitor.Guard. The rules, by operation:
//
//   - OpAccess / OpTraverse: the requested modes map onto the flow
//     rules — read, list, execute, extend require the subject to
//     dominate the object (information about the object flows to the
//     subject); write, delete, administrate require the object to
//     dominate the subject (*-property, no write-down); write-append
//     requires only the *-property and is the paper's mechanism for
//     upgrading information without reading it. Extend sits in the read
//     group: registering a specialization requires seeing the service,
//     while the authority the specialization runs with is bounded
//     separately by its static class (internal/dispatch).
//   - OpContainerBind: the no-write-down rule on a multilevel container
//     is waived so subjects above the container's class can create
//     entries (upgraded-directory semantics), but the subject must
//     still dominate the container to see it at all.
//   - OpContainerUnbind: removing an entry from a multilevel container
//     needs no mandatory rule (the DAC write mode, checked by dacguard,
//     suffices).
//   - OpCreate: the new node's class must dominate the creator —
//     creating an object below the subject's own class would constitute
//     a write-down channel.
//   - OpRelabel: relabeling moves the information at the old class to
//     the new one, so it is simultaneously a read of the old label and
//     a write of the new: the subject must dominate what it
//     declassifies and may not write down.
//   - OpAdmit: a caller may use a statically classed dispatch binding
//     only if the caller dominates the binding's static class (§2.2's
//     class-based selection).
func (*Guard) Check(r monitor.Request) monitor.Verdict {
	switch r.Op {
	case monitor.OpContainerBind:
		if !r.Class.CanRead(r.Object.Class) {
			return monitor.Deny(name, "mac: subject does not dominate container")
		}
		return monitor.Allow()
	case monitor.OpContainerUnbind:
		return monitor.Allow()
	case monitor.OpCreate:
		if !r.Class.CanWrite(r.NewClass) {
			return monitor.Deny(name, "mac: new node class must dominate creator (no write down)")
		}
		return monitor.Allow()
	case monitor.OpRelabel:
		if !r.Class.CanRead(r.Object.Class) {
			return monitor.Deny(name, "mac: subject does not dominate current class")
		}
		if !r.Class.CanWrite(r.NewClass) {
			return monitor.Deny(name, "mac: relabel would write down")
		}
		return monitor.Allow()
	case monitor.OpAdmit:
		if r.Object.Class.Valid() && !r.Class.CanRead(r.Object.Class) {
			return monitor.Deny(name, "mac: caller does not dominate static class")
		}
		return monitor.Allow()
	}
	return flow(r.Class, r.Object.Class, r.Modes)
}

// flow maps requested DAC modes onto the lattice flow rules.
func flow(subject, object lattice.Class, modes acl.Mode) monitor.Verdict {
	if why := FlowDenial(subject, object, modes); why != "" {
		return monitor.Deny(name, why)
	}
	return monitor.Allow()
}

// FlowDenial is the default-op flow decision as its denial reason: ""
// exactly when Check on an OpAccess/OpTraverse request with these
// classes and modes would allow, otherwise the reason Check denies
// with. The epoch fast path uses it when one of the classes is not
// interned in the compiled dominance table.
func FlowDenial(subject, object lattice.Class, modes acl.Mode) string {
	switch {
	case modes&readGroup != 0 && !subject.CanRead(object):
		return WhyReadUp
	case modes&writeGroup != 0 && !subject.CanWrite(object):
		return WhyWriteDown
	case modes&acl.WriteAppend != 0 && !subject.CanAppend(object):
		return WhyAppend
	}
	return ""
}

// FlowDenialInterned is FlowDenial over a precomputed dominance table:
// both classes are dense indices from d, so each direction of the flow
// test is a single matrix word probe. CanWrite and CanAppend are the
// same *-property, so the write-down and append rules share one probe.
func FlowDenialInterned(d *lattice.Dominance, subj, obj int, modes acl.Mode) string {
	if modes&readGroup != 0 && !d.Dominates(subj, obj) {
		return WhyReadUp
	}
	if modes&(writeGroup|acl.WriteAppend) != 0 && !d.Dominates(obj, subj) {
		if modes&writeGroup != 0 {
			return WhyWriteDown
		}
		return WhyAppend
	}
	return ""
}
