package acl

import (
	"errors"
	"strings"
	"testing"
)

// fakeSubject implements Subject for tests.
type fakeSubject struct {
	name   string
	groups map[string]bool
}

func (f fakeSubject) SubjectName() string        { return f.name }
func (f fakeSubject) MemberOf(group string) bool { return f.groups[group] }

func subj(name string, groups ...string) fakeSubject {
	g := make(map[string]bool, len(groups))
	for _, x := range groups {
		g[x] = true
	}
	return fakeSubject{name: name, groups: g}
}

func TestEmptyACLDeniesAll(t *testing.T) {
	a := New()
	if a.Check(subj("alice"), Read) {
		t.Error("empty ACL must deny read")
	}
	if got := a.Granted(subj("alice")); got != None {
		t.Errorf("Granted on empty ACL = %v, want none", got)
	}
	if !a.Check(subj("alice"), None) {
		t.Error("empty mode request must always be granted")
	}
}

func TestAllowPrincipal(t *testing.T) {
	a := New(Allow("alice", Read|Execute))
	if !a.Check(subj("alice"), Read) || !a.Check(subj("alice"), Execute) {
		t.Error("alice must have read+execute")
	}
	if a.Check(subj("alice"), Write) {
		t.Error("alice must not have write")
	}
	if a.Check(subj("bob"), Read) {
		t.Error("bob must not have read")
	}
}

func TestGroupEntries(t *testing.T) {
	a := New(AllowGroup("staff", Read|List))
	if !a.Check(subj("alice", "staff"), Read|List) {
		t.Error("staff member must have read+list")
	}
	if a.Check(subj("bob"), Read) {
		t.Error("non-member must not have read")
	}
}

func TestDenyOverridesAllow(t *testing.T) {
	// Order must not matter: deny wins either way.
	a := New(Allow("alice", Read|Write), Deny("alice", Write))
	b := New(Deny("alice", Write), Allow("alice", Read|Write))
	for i, x := range []*ACL{a, b} {
		if !x.Check(subj("alice"), Read) {
			t.Errorf("acl %d: read must survive", i)
		}
		if x.Check(subj("alice"), Write) {
			t.Errorf("acl %d: deny must override allow for write", i)
		}
	}
}

func TestDenyGroupOverridesAllowPrincipal(t *testing.T) {
	// §2.1 example shape: the individual is allowed but the group is
	// banned; deny-overrides means the ban wins.
	a := New(Allow("mallory", Execute), DenyGroup("suspended", Execute))
	if a.Check(subj("mallory", "suspended"), Execute) {
		t.Error("suspended group deny must override individual allow")
	}
	if !a.Check(subj("mallory"), Execute) {
		t.Error("mallory outside group must keep execute")
	}
}

func TestEveryoneEntries(t *testing.T) {
	a := New(AllowEveryone(List), Allow("root", AllModes))
	if !a.Check(subj("anyone"), List) {
		t.Error("everyone must have list")
	}
	if a.Check(subj("anyone"), Read) {
		t.Error("anyone must not have read")
	}
	if !a.Check(subj("root"), AllModes) {
		t.Error("root must have all modes")
	}
	d := New(AllowEveryone(AllModes), DenyEveryone(Administrate))
	if d.Check(subj("x"), Administrate) {
		t.Error("deny everyone administrate must hold")
	}
	if !d.Check(subj("x"), AllModes&^Administrate) {
		t.Error("everything but administrate must be granted")
	}
}

func TestAllowUnionAcrossEntries(t *testing.T) {
	// Allow entries collect: individual + group grants union.
	a := New(Allow("alice", Read), AllowGroup("staff", Execute))
	if !a.Check(subj("alice", "staff"), Read|Execute) {
		t.Error("grants from principal and group entries must union")
	}
}

func TestAddMergesDuplicateKeys(t *testing.T) {
	a := New()
	a.Add(Allow("alice", Read))
	a.Add(Allow("alice", Write))
	if a.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (merged)", a.Len())
	}
	if !a.Check(subj("alice"), Read|Write) {
		t.Error("merged entry must carry both modes")
	}
	a.Add(Deny("alice", Read))
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (deny is a separate key)", a.Len())
	}
}

func TestRemove(t *testing.T) {
	a := New(Allow("alice", Read|Write))
	if err := a.Remove(Principal, "alice", false, Write); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if a.Check(subj("alice"), Write) {
		t.Error("write must be removed")
	}
	if !a.Check(subj("alice"), Read) {
		t.Error("read must remain")
	}
	if err := a.Remove(Principal, "alice", false, Read); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if a.Len() != 0 {
		t.Errorf("emptied entry must be deleted, Len = %d", a.Len())
	}
	if err := a.Remove(Principal, "alice", false, Read); !errors.Is(err, ErrNotFound) {
		t.Errorf("Remove missing: got %v, want ErrNotFound", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := New(Allow("alice", Read))
	b := a.Clone()
	b.Add(Allow("bob", Write))
	if a.Len() != 1 {
		t.Error("mutating clone must not affect original")
	}
	ents := a.Entries()
	ents[0].Who = "evil"
	if a.Entries()[0].Who != "alice" {
		t.Error("Entries must return a copy")
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	a := New(
		Allow("alice", Read|Execute),
		DenyGroup("outside", Extend|Execute),
		AllowEveryone(List),
	)
	s := a.String()
	b, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	if b.String() != s || !b.Equal(a) {
		t.Errorf("round trip:\n  %q\n  %q", s, b.String())
	}
	for _, c := range []*ACL{
		New(Allow("alice", Read|Execute), DenyGroup("outside", Extend|Execute)),
		New(Allow("alice", Read), DenyGroup("outside", Extend|Execute), AllowEveryone(List)),
		New(Allow("bob", Read|Execute), DenyGroup("outside", Extend|Execute), AllowEveryone(List)),
		New(Allow("alice", Read|Execute), AllowGroup("outside", Extend|Execute), AllowEveryone(List)),
		New(Allow("alice", Read|Execute), DenyGroup("outside", Extend|Execute), DenyEveryone(List)),
	} {
		if c.Equal(a) || (c.String() == s) {
			t.Errorf("%q equals %q", c, s)
		}
	}
	named := a.Clone()
	named.entries[2].Who = "ignored"
	if !named.Equal(a) || named.String() != s {
		t.Errorf("an everyone entry's name changed %q", named)
	}
	empty, err := Parse("")
	if err != nil || empty.Len() != 0 {
		t.Errorf("Parse empty: %v len=%d", err, empty.Len())
	}
	empty2, err := Parse("(empty)")
	if err != nil || empty2.Len() != 0 {
		t.Errorf("Parse (empty): %v len=%d", err, empty2.Len())
	}
}

func TestParseEntryForms(t *testing.T) {
	cases := []struct {
		in   string
		want Entry
	}{
		{"allow alice read", Allow("alice", Read)},
		{"deny @staff extend", DenyGroup("staff", Extend)},
		{"allow * list", AllowEveryone(List)},
		{"deny * all", DenyEveryone(AllModes)},
		{"allow bob none", Entry{Kind: Principal, Who: "bob"}},
	}
	for _, tc := range cases {
		got, err := ParseEntry(tc.in)
		if err != nil {
			t.Errorf("ParseEntry(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseEntry(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseEntryErrors(t *testing.T) {
	for _, bad := range []string{
		"", "allow", "allow alice", "grant alice read",
		"allow alice read write", "allow alice bogus", "deny @ read",
	} {
		if _, err := ParseEntry(bad); err == nil {
			t.Errorf("ParseEntry(%q): want error", bad)
		}
	}
	if _, err := Parse("allow alice read; garbage"); err == nil {
		t.Error("Parse with bad entry: want error")
	}
}

func TestExplain(t *testing.T) {
	a := New(
		Allow("alice", Read|Write),
		Deny("alice", Write),
		AllowGroup("staff", Execute),
	)
	ex := a.Explain(subj("alice", "staff"), Read|Write|Execute)
	if ex.Verdict {
		t.Error("verdict must be deny (write vetoed)")
	}
	if len(ex.Matched) != 3 {
		t.Errorf("matched %d entries", len(ex.Matched))
	}
	if ex.Allowed != Read|Write|Execute || ex.Denied != Write || ex.Granted != Read|Execute {
		t.Errorf("explanation = %+v", ex)
	}
	s := ex.String()
	for _, want := range []string{"DENY", "vetoed by deny entries: write", "matched:"} {
		if !strings.Contains(s, want) {
			t.Errorf("explanation text missing %q:\n%s", want, s)
		}
	}
	// Consistency with Check across the whole request space.
	for m := Mode(0); m <= AllModes; m++ {
		if a.Explain(subj("alice", "staff"), m).Verdict != a.Check(subj("alice", "staff"), m) {
			t.Fatalf("Explain and Check disagree at %v", m)
		}
	}
	// No matching entries.
	ex = a.Explain(subj("nobody"), Read)
	if ex.Verdict || len(ex.Matched) != 0 {
		t.Errorf("nobody explanation = %+v", ex)
	}
	if !strings.Contains(ex.String(), "fail-closed") {
		t.Errorf("text = %q", ex.String())
	}
	// Modes never granted show up as such.
	ex = New(Allow("x", Read)).Explain(subj("x"), Read|Delete)
	if !strings.Contains(ex.String(), "never granted: delete") {
		t.Errorf("text = %q", ex.String())
	}
	// Allow verdicts render too.
	ex = New(Allow("x", Read)).Explain(subj("x"), Read)
	if !ex.Verdict || !strings.Contains(ex.String(), "ALLOW") {
		t.Errorf("allow explanation = %+v", ex)
	}
}

func TestExecuteAndExtendIndependent(t *testing.T) {
	// The two extension interaction modes are independently grantable:
	// an extension may be allowed to call a service but not specialize
	// it, and vice versa (§2.1).
	callOnly := New(Allow("ext1", Execute))
	if !callOnly.Check(subj("ext1"), Execute) || callOnly.Check(subj("ext1"), Extend) {
		t.Error("execute without extend must be expressible")
	}
	extendOnly := New(Allow("ext2", Extend))
	if !extendOnly.Check(subj("ext2"), Extend) || extendOnly.Check(subj("ext2"), Execute) {
		t.Error("extend without execute must be expressible")
	}
}
