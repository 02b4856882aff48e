package dacguard

import (
	"testing"

	"secext/internal/acl"
	"secext/internal/idset"
	"secext/internal/monitor"
)

// sub is a bare test subject.
type sub string

func (s sub) SubjectName() string { return string(s) }
func (sub) MemberOf(string) bool  { return false }

func req(a *acl.ACL, modes, anyOf acl.Mode, op monitor.Op) monitor.Request {
	return monitor.Request{
		Subject: sub("p"),
		Object:  monitor.Object{Path: "/obj", ACL: a},
		Modes:   modes, AnyOf: anyOf, Op: op,
	}
}

func TestConjunctiveCheck(t *testing.T) {
	g := New()
	a := acl.New(acl.Allow("p", acl.Read|acl.Write))
	if v := g.Check(req(a, acl.Read|acl.Write, 0, monitor.OpAccess)); !v.Allow {
		t.Fatalf("granted modes denied: %+v", v)
	}
	v := g.Check(req(a, acl.Read|acl.Delete, 0, monitor.OpAccess))
	if v.Allow || v.Guard != "dac" || v.Reason != "acl: modes not granted" {
		t.Fatalf("ungranted mode allowed or wrong reason: %+v", v)
	}
}

func TestAnyOfDisjunction(t *testing.T) {
	g := New()
	// Administrate but not Read still satisfies read-or-administrate.
	a := acl.New(acl.Allow("p", acl.Administrate))
	anyOf := acl.Read | acl.Administrate
	if v := g.Check(req(a, acl.Read, anyOf, monitor.OpAccess)); !v.Allow {
		t.Fatalf("disjunction denied: %+v", v)
	}
	v := g.Check(req(acl.New(), acl.Read, anyOf, monitor.OpAccess))
	if v.Allow || v.Reason != "acl: need read or administrate" {
		t.Fatalf("empty ACL: %+v; want the disjunctive reason", v)
	}
}

func TestNonDiscretionaryOpsPass(t *testing.T) {
	g := New()
	for _, op := range []monitor.Op{monitor.OpCreate, monitor.OpRelabel, monitor.OpAdmit} {
		// Even an empty ACL and ungranted modes pass: these ops carry
		// no discretionary question of their own.
		if v := g.Check(req(acl.New(), acl.Write, 0, op)); !v.Allow {
			t.Errorf("%v denied by dac: %+v", op, v)
		}
	}
}

func TestName(t *testing.T) {
	if New().Name() != "dac" {
		t.Fatal("name changed; verdict attribution depends on it")
	}
}

// idResolver maps a fixed principal list and flat groups onto dense
// IDs; it doubles as the acl.Membership for the oracle side.
type idResolver struct {
	ids    map[string]int
	groups map[string][]string
}

func (r *idResolver) PrincipalID(name string) (int, bool) {
	id, ok := r.ids[name]
	return id, ok
}

func (r *idResolver) GroupPrincipalIDs(group string) *idset.Set {
	var ids []int
	for _, m := range r.groups[group] {
		if id, ok := r.ids[m]; ok {
			ids = append(ids, id)
		}
	}
	return idset.Of(ids...)
}

func (r *idResolver) NumPrincipalIDs() int { return len(r.ids) }

func (r *idResolver) IsMember(subject, group string) bool {
	for _, m := range r.groups[group] {
		if m == subject {
			return true
		}
	}
	return false
}

// TestAllowsMatchesCheck cross-checks the compiled Allows verdict
// against the guard's Check over every mode subset, both conjunctive
// and disjunctive, for subjects hit by principal, group, everyone, and
// deny entries.
func TestAllowsMatchesCheck(t *testing.T) {
	g := New()
	r := &idResolver{
		ids:    map[string]int{"p": 0, "q": 1, "z": 2},
		groups: map[string][]string{"staff": {"q", "z"}},
	}
	a := acl.New(
		acl.Allow("p", acl.Read|acl.Write),
		acl.AllowGroup("staff", acl.Read|acl.List),
		acl.AllowEveryone(acl.Execute),
		acl.Deny("z", acl.Read),
		acl.DenyEveryone(acl.Delete),
	)
	sum := a.Compile(r)
	for name, id := range r.ids {
		s := sub(name)
		for want := acl.Mode(0); want <= acl.AllModes; want++ {
			rq := monitor.Request{
				Subject: s,
				Object:  monitor.Object{Path: "/obj", ACL: a},
				Modes:   want, Members: r, Op: monitor.OpAccess,
			}
			if got, oracle := Allows(sum, id, want, 0), g.Check(rq).Allow; got != oracle {
				t.Fatalf("Allows(%s, %s) = %v, Check = %v", name, want, got, oracle)
			}
			rq.AnyOf = want
			if got, oracle := Allows(sum, id, want, want), g.Check(rq).Allow; got != oracle {
				t.Fatalf("Allows anyOf(%s, %s) = %v, Check = %v", name, want, got, oracle)
			}
		}
	}
}
