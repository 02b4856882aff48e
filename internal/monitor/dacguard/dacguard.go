// Package dacguard is the discretionary half of the default guard
// stack: the ACL decision of §2.1, ported verbatim out of the name
// server so that discretionary policy is a pluggable module rather than
// mechanism. It runs first in the default pipeline — the paper layers
// mandatory control on top of discretionary control, so a DAC denial
// short-circuits before the lattice is consulted.
package dacguard

import (
	"strings"

	"secext/internal/acl"
	"secext/internal/monitor"
)

// name is the guard's identity in verdicts.
const name = "dac"

// WhyNotGranted is the reason Check denies a conjunctive request with.
// The epoch's compiled read path reports the same constant, so a
// compiled denial and the guard's cannot drift apart.
const WhyNotGranted = "acl: modes not granted"

// Guard evaluates the object's ACL against the requested modes. It is
// stateless and safe for concurrent use.
type Guard struct{}

// New returns the discretionary guard.
func New() *Guard { return &Guard{} }

// Name implements monitor.Guard.
func (*Guard) Name() string { return name }

// Check implements monitor.Guard.
//
//   - OpCreate, OpRelabel, OpAdmit carry no discretionary question (the
//     ACL legs of those operations arrive as separate OpAccess
//     requests), so they pass.
//   - A request with AnyOf set needs at least one of those modes
//     granted (GetACL's "read or administrate" disjunction).
//   - Everything else is the conjunctive check: every requested mode
//     must be granted, deny entries overriding (acl.ACL.Check).
//
// Group entries are resolved against r.Members — the frozen membership
// relation of the policy epoch the request was pinned to — so a
// concurrent revocation can never split the decision. Only a caller
// with no epoch (r.Members == nil) falls back to Subject.MemberOf.
func (*Guard) Check(r monitor.Request) monitor.Verdict {
	switch r.Op {
	case monitor.OpCreate, monitor.OpRelabel, monitor.OpAdmit:
		return monitor.Allow()
	}
	if r.AnyOf != 0 {
		if r.Object.ACL.GrantedIn(r.Subject, r.Members)&r.AnyOf == 0 {
			return monitor.Deny(name, "acl: need "+disjunction(r.AnyOf))
		}
		return monitor.Allow()
	}
	if !r.Object.ACL.CheckIn(r.Subject, r.Modes, r.Members) {
		return monitor.Deny(name, WhyNotGranted)
	}
	return monitor.Allow()
}

// disjunction renders an AnyOf mode set as "read or administrate".
func disjunction(m acl.Mode) string {
	return strings.ReplaceAll(m.String(), ",", " or ")
}

// Allows is the compiled form of Check's OpAccess/OpTraverse verdict:
// the same decision Check renders by ACL entry iteration, answered from
// a freeze-time Summary with a few bitset probes. pid is the subject's
// dense principal ID in the registry the summary was compiled against.
// Callers (the epoch fast path) handle the ops Check passes through
// (OpCreate/OpRelabel/OpAdmit) before consulting summaries; the
// existing Check remains the oracle the fast path is tested against.
func Allows(sum *acl.Summary, pid int, modes, anyOf acl.Mode) bool {
	if anyOf != 0 {
		return sum.Granted(pid)&anyOf != 0
	}
	return sum.Grants(pid, modes)
}
