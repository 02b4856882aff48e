// Package provenance answers "why did the monitor decide that?" — it
// re-evaluates an access decision against a pinned epoch in
// instrumented mode and reports every contribution to the verdict:
// the epoch version, whether the production path would have answered
// from the compiled index or the tree walk, per-component traversal
// visibility, the specific ACL entries that matched (with the
// membership chain that made a group entry apply), every guard's
// verdict with the short-circuit point, and the MAC dominance
// comparison with both lattice classes named.
//
// Explain is advisory tooling: it never touches the decision cache,
// its re-evaluation is never audited as an access, and its verdict is
// never enforced — the authoritative answer is the production check
// it replays (Epoch.CheckIn), byte for byte.
package provenance

import (
	"fmt"
	"strings"

	"secext/internal/acl"
	"secext/internal/lattice"
)

// Subject is what explain needs from a requesting principal: the ACL
// identity plus the current security class. subject.Context satisfies
// it.
type Subject interface {
	acl.Subject
	Class() lattice.Class
}

// TraversalStep is the visibility verdict for one interior node on
// the way to the target: resolution walks through it only if the
// subject holds list on it and may MAC-read it.
type TraversalStep struct {
	Path    string `json:"path"`
	Class   string `json:"class"`
	Visible bool   `json:"visible"`
	Reason  string `json:"reason,omitempty"`
}

// MatchedEntry is one ACL entry that applied to the subject, plus —
// for group entries — the membership chain that connected the subject
// to the group (group, intermediate subgroups, subject).
type MatchedEntry struct {
	Entry string   `json:"entry"`
	Deny  bool     `json:"deny"`
	Modes string   `json:"modes"`
	Chain []string `json:"membership_chain,omitempty"`
}

// ACLReport is the discretionary half of the decision: the target's
// ACL, which entries matched, and the allow/deny/granted mode
// arithmetic.
type ACLReport struct {
	ACL     string         `json:"acl"`
	Matched []MatchedEntry `json:"matched"`
	Allowed string         `json:"allowed,omitempty"`
	Denied  string         `json:"denied,omitempty"`
	Granted string         `json:"granted,omitempty"`
	Want    string         `json:"want"`
	Verdict bool           `json:"verdict"`
}

// MACReport is the mandatory half: both classes named, both dominance
// directions, and which of the requested modes fall into each flow
// group.
type MACReport struct {
	SubjectClass           string `json:"subject_class"`
	ObjectClass            string `json:"object_class"`
	SubjectDominatesObject bool   `json:"subject_dominates_object"`
	ObjectDominatesSubject bool   `json:"object_dominates_subject"`
	ReadModes              string `json:"read_modes,omitempty"`   // need subject ⊒ object
	WriteModes             string `json:"write_modes,omitempty"`  // need object ⊒ subject
	AppendModes            string `json:"append_modes,omitempty"` // need object ⊒ subject
	Allow                  bool   `json:"allow"`
	Reason                 string `json:"reason,omitempty"`
}

// GuardReport is one guard's verdict from the instrumented run: every
// guard is consulted (no silent short-circuit), and the guard whose
// denial would have ended a production check is marked Decisive.
type GuardReport struct {
	Guard    string `json:"guard"`
	Allow    bool   `json:"allow"`
	Reason   string `json:"reason,omitempty"`
	Decisive bool   `json:"decisive,omitempty"`
}

// Explanation is the structured verdict tree ExplainCheck returns.
// Allowed/Reason are the authoritative production verdict; everything
// else is the instrumented working that produced it.
type Explanation struct {
	EpochVersion uint64 `json:"epoch_version"`
	Subject      string `json:"subject"`
	SubjectClass string `json:"subject_class"`
	Path         string `json:"path"`
	Modes        string `json:"modes"`
	Allowed      bool   `json:"allowed"`
	Reason       string `json:"reason,omitempty"`
	// Route says how the production read path would have answered:
	// "compiled" when the freeze-time index + bitsets decide it (an
	// allow, a missing grant, a hidden ancestor or a MAC flow failure,
	// with the walk's exact error), "walk" when the decision takes (or
	// would fall back to) the tree walk.
	Route        string          `json:"route"`
	Resolved     bool            `json:"resolved"` // path structurally bound
	ResolveError string          `json:"resolve_error,omitempty"`
	Traversal    []TraversalStep `json:"traversal,omitempty"`
	ACL          *ACLReport      `json:"acl,omitempty"`
	MAC          *MACReport      `json:"mac,omitempty"`
	Guards       []GuardReport   `json:"guards,omitempty"`
	ShortCircuit int             `json:"short_circuit"` // index into Guards; -1 = none
}

// String renders the explanation as an indented human-readable
// verdict tree — what secctl explain prints.
func (ex *Explanation) String() string {
	var b strings.Builder
	verdict := "DENY"
	if ex.Allowed {
		verdict = "ALLOW"
	}
	fmt.Fprintf(&b, "%s %s %s on %s (epoch v%d, route %s)\n",
		verdict, ex.Subject, ex.Modes, ex.Path, ex.EpochVersion, ex.Route)
	fmt.Fprintf(&b, "  subject class: %s\n", ex.SubjectClass)
	if ex.Reason != "" {
		fmt.Fprintf(&b, "  reason: %s\n", ex.Reason)
	}
	if len(ex.Traversal) > 0 {
		b.WriteString("  traversal:\n")
		for _, st := range ex.Traversal {
			vis := "visible"
			if !st.Visible {
				vis = "HIDDEN"
			}
			fmt.Fprintf(&b, "    %s (class %s): %s", st.Path, st.Class, vis)
			if st.Reason != "" {
				fmt.Fprintf(&b, " — %s", st.Reason)
			}
			b.WriteByte('\n')
		}
	}
	if !ex.Resolved {
		if ex.ResolveError != "" {
			fmt.Fprintf(&b, "  resolve: %s\n", ex.ResolveError)
		}
		return b.String()
	}
	if a := ex.ACL; a != nil {
		fmt.Fprintf(&b, "  acl [%s]:\n", a.ACL)
		if len(a.Matched) == 0 {
			b.WriteString("    no entries matched the subject (fail-closed)\n")
		}
		for _, m := range a.Matched {
			fmt.Fprintf(&b, "    matched: %s", m.Entry)
			if len(m.Chain) > 0 {
				fmt.Fprintf(&b, " (via %s)", strings.Join(m.Chain, " -> "))
			}
			b.WriteByte('\n')
		}
		aver := "DENY"
		if a.Verdict {
			aver = "ALLOW"
		}
		fmt.Fprintf(&b, "    granted %s, want %s => %s\n",
			orNone(a.Granted), a.Want, aver)
	}
	if len(ex.Guards) > 0 {
		b.WriteString("  guards:\n")
		for _, g := range ex.Guards {
			gv := "allow"
			if !g.Allow {
				gv = "DENY"
			}
			fmt.Fprintf(&b, "    %s: %s", g.Guard, gv)
			if g.Reason != "" {
				fmt.Fprintf(&b, " — %s", g.Reason)
			}
			if g.Decisive {
				b.WriteString("   <- decided here")
			}
			b.WriteByte('\n')
		}
	}
	if m := ex.MAC; m != nil {
		fmt.Fprintf(&b, "  mac: subject %s vs object %s\n", m.SubjectClass, m.ObjectClass)
		fmt.Fprintf(&b, "    subject dominates object: %v, object dominates subject: %v\n",
			m.SubjectDominatesObject, m.ObjectDominatesSubject)
		if m.ReadModes != "" {
			fmt.Fprintf(&b, "    read-up rule applies to %s (needs subject ⊒ object)\n", m.ReadModes)
		}
		if m.WriteModes != "" {
			fmt.Fprintf(&b, "    write-down rule applies to %s (needs object ⊒ subject)\n", m.WriteModes)
		}
		if m.AppendModes != "" {
			fmt.Fprintf(&b, "    append rule applies to %s (needs object ⊒ subject)\n", m.AppendModes)
		}
		if m.Reason != "" {
			fmt.Fprintf(&b, "    verdict: DENY — %s\n", m.Reason)
		} else {
			b.WriteString("    verdict: allow\n")
		}
	}
	return b.String()
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
