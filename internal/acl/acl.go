package acl

import (
	"errors"
	"fmt"
	"strings"
	"unsafe"
)

// Subject is the view of a requesting principal the decision procedure
// needs: its name and its (transitive) group memberships. The principal
// package's types satisfy this interface.
type Subject interface {
	// SubjectName returns the principal's unique name.
	SubjectName() string
	// MemberOf reports whether the principal is a (possibly transitive)
	// member of the named group.
	MemberOf(group string) bool
}

// Membership answers transitive group-membership queries by name. The
// principal package's Frozen registry satisfies it; a reference monitor
// that pins a policy epoch passes the pinned registry so every group
// entry in a decision is judged against one consistent version of the
// membership relation — never against live mutable state that a
// concurrent revocation could change mid-decision.
type Membership interface {
	// IsMember reports whether subject is a (possibly transitive)
	// member of group.
	IsMember(subject, group string) bool
}

// WhoKind says what an entry's Who field names.
type WhoKind uint8

const (
	// Principal entries match exactly one individual by name.
	Principal WhoKind = iota
	// Group entries match every (transitive) member of the group.
	Group
	// Everyone entries match any subject; Who is ignored.
	Everyone
)

func (k WhoKind) String() string {
	switch k {
	case Principal:
		return "principal"
	case Group:
		return "group"
	case Everyone:
		return "everyone"
	}
	return fmt.Sprintf("WhoKind(%d)", uint8(k))
}

// Entry is one ACL entry: an allow or deny of a mode set to an
// individual, a group, or everyone.
type Entry struct {
	Kind  WhoKind
	Who   string // principal or group name; empty for Everyone
	Deny  bool   // negative entry
	Modes Mode
}

// Matches reports whether the entry applies to the subject, answering
// group entries through the subject's own MemberOf (which may consult
// live registry state). Decisions that have pinned an epoch should use
// MatchesIn instead.
func (e Entry) Matches(s Subject) bool {
	return e.MatchesIn(s, nil)
}

// MatchesIn reports whether the entry applies to the subject, resolving
// group entries against m when it is non-nil. A nil m falls back to the
// subject's MemberOf.
func (e Entry) MatchesIn(s Subject, m Membership) bool {
	switch e.Kind {
	case Everyone:
		return true
	case Principal:
		return s.SubjectName() == e.Who
	case Group:
		if m != nil {
			return m.IsMember(s.SubjectName(), e.Who)
		}
		return s.MemberOf(e.Who)
	}
	return false
}

// String renders the entry in the textual form accepted by ParseEntry:
// "allow alice read,execute", "deny @staff extend", "allow * list".
func (e Entry) String() string {
	verb := "allow"
	if e.Deny {
		verb = "deny"
	}
	who := e.Who
	switch e.Kind {
	case Group:
		who = "@" + e.Who
	case Everyone:
		who = "*"
	}
	return verb + " " + who + " " + e.Modes.String()
}

// Errors returned by ACL operations.
var (
	ErrBadEntry = errors.New("acl: malformed entry")
	ErrNotFound = errors.New("acl: no such entry")
)

// ParseEntry parses the textual entry form produced by Entry.String.
func ParseEntry(s string) (Entry, error) {
	fields := strings.Fields(s)
	if len(fields) != 3 {
		return Entry{}, fmt.Errorf("%w: %q (want \"allow|deny who modes\")", ErrBadEntry, s)
	}
	var e Entry
	switch fields[0] {
	case "allow":
	case "deny":
		e.Deny = true
	default:
		return Entry{}, fmt.Errorf("%w: verb %q", ErrBadEntry, fields[0])
	}
	who := fields[1]
	switch {
	case who == "*":
		e.Kind = Everyone
	case strings.HasPrefix(who, "@"):
		e.Kind = Group
		e.Who = who[1:]
	default:
		e.Kind = Principal
		e.Who = who
	}
	if e.Kind != Everyone && e.Who == "" {
		return Entry{}, fmt.Errorf("%w: empty name in %q", ErrBadEntry, s)
	}
	m, err := ParseMode(fields[2])
	if err != nil {
		return Entry{}, err
	}
	e.Modes = m
	return e, nil
}

// ACL is an access control list: an unordered set of allow and deny
// entries. The zero ACL is empty and denies everything (fail-closed).
//
// An ACL is a plain value and is not safe for concurrent mutation; the
// name space serializes updates to the ACL attached to each node.
type ACL struct {
	entries []Entry

	// onMutate, when set, is called after every in-place entry mutation
	// (Add, Remove). The name server installs it on the private clones
	// attached to nodes so that any edit of live protection state bumps
	// the decision-cache generation, even one that bypasses SetACL.
	// Clone deliberately drops the hook: copies handed to callers are
	// not live protection state.
	onMutate func()
}

// New builds an ACL from entries.
func New(entries ...Entry) *ACL {
	a := &ACL{}
	for _, e := range entries {
		a.Add(e)
	}
	return a
}

// Allow appends a positive entry for an individual principal.
func Allow(who string, modes Mode) Entry {
	return Entry{Kind: Principal, Who: who, Modes: modes}
}

// Deny appends a negative entry for an individual principal.
func Deny(who string, modes Mode) Entry {
	return Entry{Kind: Principal, Who: who, Deny: true, Modes: modes}
}

// AllowGroup builds a positive entry for a group.
func AllowGroup(group string, modes Mode) Entry {
	return Entry{Kind: Group, Who: group, Modes: modes}
}

// DenyGroup builds a negative entry for a group.
func DenyGroup(group string, modes Mode) Entry {
	return Entry{Kind: Group, Who: group, Deny: true, Modes: modes}
}

// AllowEveryone builds a positive entry matching any subject.
func AllowEveryone(modes Mode) Entry {
	return Entry{Kind: Everyone, Modes: modes}
}

// DenyEveryone builds a negative entry matching any subject.
func DenyEveryone(modes Mode) Entry {
	return Entry{Kind: Everyone, Deny: true, Modes: modes}
}

// SetMutationHook installs a function called after every in-place
// mutation of the ACL. A nil hook clears it.
func (a *ACL) SetMutationHook(fn func()) { a.onMutate = fn }

// mutated invokes the mutation hook, if any.
func (a *ACL) mutated() {
	if a.onMutate != nil {
		a.onMutate()
	}
}

// Add inserts an entry. Entries with the same (Kind, Who, Deny) key are
// merged by mode union, so an ACL never carries duplicate keys.
func (a *ACL) Add(e Entry) {
	defer a.mutated()
	for i := range a.entries {
		x := &a.entries[i]
		if x.Kind == e.Kind && x.Who == e.Who && x.Deny == e.Deny {
			x.Modes |= e.Modes
			return
		}
	}
	a.entries = append(a.entries, e)
}

// Remove drops modes from the entry with the given key; if the entry's
// mode set becomes empty the entry is deleted. It returns ErrNotFound if
// no entry has the key.
func (a *ACL) Remove(kind WhoKind, who string, deny bool, modes Mode) error {
	for i := range a.entries {
		x := &a.entries[i]
		if x.Kind == kind && x.Who == who && x.Deny == deny {
			x.Modes &^= modes
			if x.Modes == None {
				a.entries = append(a.entries[:i], a.entries[i+1:]...)
			}
			a.mutated()
			return nil
		}
	}
	return fmt.Errorf("%w: %s %q deny=%v", ErrNotFound, kind, who, deny)
}

// Entries returns a copy of the entry list.
func (a *ACL) Entries() []Entry {
	out := make([]Entry, len(a.entries))
	copy(out, a.entries)
	return out
}

// Len reports the number of entries.
func (a *ACL) Len() int { return len(a.entries) }

// RetainedBytes estimates the heap bytes held by the ACL's entry list:
// the backing array plus each entry's name string. The name server's
// footprint accounting uses it to price distinct ACL values once.
func (a *ACL) RetainedBytes() int {
	n := int(unsafe.Sizeof(Entry{})) * cap(a.entries)
	for _, e := range a.entries {
		n += len(e.Who)
	}
	return n
}

// Clone returns a deep copy of the ACL.
func (a *ACL) Clone() *ACL {
	return &ACL{entries: a.Entries()}
}

// Granted computes the effective mode set for a subject: the union of
// all matching allow entries minus the union of all matching deny
// entries (deny-overrides).
func (a *ACL) Granted(s Subject) Mode {
	return a.GrantedIn(s, nil)
}

// GrantedIn is Granted with group entries resolved against m when it is
// non-nil (see MatchesIn).
func (a *ACL) GrantedIn(s Subject, m Membership) Mode {
	var allowed, denied Mode
	for _, e := range a.entries {
		if !e.MatchesIn(s, m) {
			continue
		}
		if e.Deny {
			denied |= e.Modes
		} else {
			allowed |= e.Modes
		}
	}
	return allowed &^ denied
}

// Check reports whether the subject is granted every mode in want.
// An empty want is always granted.
func (a *ACL) Check(s Subject, want Mode) bool {
	return a.Granted(s).Has(want)
}

// CheckIn is Check with group entries resolved against m when it is
// non-nil (see MatchesIn).
func (a *ACL) CheckIn(s Subject, want Mode, m Membership) bool {
	return a.GrantedIn(s, m).Has(want)
}

// Explanation reports how a decision came out: which entries matched
// the subject, what they contributed, and the final verdict. It exists
// for administrators (secctl, the shell) — the paper's psychological-
// acceptability argument only works if users can see *why* they were
// denied.
type Explanation struct {
	Matched []Entry // entries that matched the subject, in ACL order
	Allowed Mode    // union of matching allow entries
	Denied  Mode    // union of matching deny entries
	Granted Mode    // Allowed &^ Denied
	Want    Mode    // the requested modes
	Verdict bool    // Granted covers Want
}

// String renders the explanation as a short multi-line report.
func (e Explanation) String() string {
	var b strings.Builder
	verdict := "DENY"
	if e.Verdict {
		verdict = "ALLOW"
	}
	fmt.Fprintf(&b, "%s %s (granted %s)\n", verdict, e.Want, e.Granted)
	if len(e.Matched) == 0 {
		b.WriteString("  no entries matched the subject (fail-closed)\n")
		return b.String()
	}
	for _, m := range e.Matched {
		fmt.Fprintf(&b, "  matched: %s\n", m)
	}
	if missing := e.Want &^ e.Granted; missing != None {
		if vetoed := e.Want & e.Denied; vetoed != None {
			fmt.Fprintf(&b, "  vetoed by deny entries: %s\n", vetoed)
		}
		if ungranted := missing &^ e.Denied; ungranted != None {
			fmt.Fprintf(&b, "  never granted: %s\n", ungranted)
		}
	}
	return b.String()
}

// Explain evaluates the request like Check but keeps the working.
func (a *ACL) Explain(s Subject, want Mode) Explanation {
	return a.ExplainIn(s, want, nil)
}

// ExplainIn is Explain with group entries resolved against m when it is
// non-nil (see MatchesIn).
func (a *ACL) ExplainIn(s Subject, want Mode, m Membership) Explanation {
	ex := Explanation{Want: want}
	for _, e := range a.entries {
		if !e.MatchesIn(s, m) {
			continue
		}
		ex.Matched = append(ex.Matched, e)
		if e.Deny {
			ex.Denied |= e.Modes
		} else {
			ex.Allowed |= e.Modes
		}
	}
	ex.Granted = ex.Allowed &^ ex.Denied
	ex.Verdict = ex.Granted.Has(want)
	return ex
}

// String renders the ACL as semicolon-separated entries.
func (a *ACL) String() string {
	if len(a.entries) == 0 {
		return "(empty)"
	}
	parts := make([]string, len(a.entries))
	for i, e := range a.entries {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// Equal reports whether a and b render the same String, without
// rendering either: the same entries in the same order, where the name
// of an everyone entry does not count.
func (a *ACL) Equal(b *ACL) bool {
	if len(a.entries) != len(b.entries) {
		return false
	}
	for i, x := range a.entries {
		y := b.entries[i]
		if x.Kind != y.Kind || x.Deny != y.Deny || x.Modes != y.Modes || x.Kind != Everyone && x.Who != y.Who {
			return false
		}
	}
	return true
}

// Parse parses a semicolon-separated entry list as produced by String.
// The empty string and "(empty)" parse to an empty ACL.
func Parse(s string) (*ACL, error) {
	a := New()
	s = strings.TrimSpace(s)
	if s == "" || s == "(empty)" {
		return a, nil
	}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		e, err := ParseEntry(part)
		if err != nil {
			return nil, err
		}
		a.Add(e)
	}
	return a, nil
}
