package principal

import (
	"errors"
	"fmt"
	"testing"

	"secext/internal/lattice"
)

// TestApplyMixedEditsOneVersion: principals, groups, a nested group and
// their memberships in one call land in one version, each edit seeing
// the earlier ones.
func TestApplyMixedEditsOneVersion(t *testing.T) {
	r, lat := newTestRegistry(t)
	c := lat.MustClass("others")
	v0 := r.Version()
	v, err := r.Apply(
		AddPrincipal("alice", c),
		AddPrincipal("bob", c),
		AddGroup("staff"),
		AddGroup("company"),
		AddMember("staff", "alice"),
		AddMember("company", "staff"),
		AddMember("company", "bob"),
		RemoveMember("company", "bob"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if v != v0+1 || r.Version() != v0+1 {
		t.Fatalf("Apply returned v%d, registry at v%d, want v%d", v, r.Version(), v0+1)
	}
	if !r.IsMember("alice", "company") || r.IsMember("bob", "company") {
		t.Fatal("memberships of the call not all visible")
	}
	if v, err := r.Apply(); v != 0 || err != nil || r.Version() != v0+1 {
		t.Fatalf("empty Apply: v=%d err=%v", v, err)
	}
}

// TestApplyFailureIsAtomic: when the k-th edit fails, no edit lands —
// version, principal and group tables, membership rows, and the next
// dense principal ID are all untouched, and later Applies (incremental
// and full freezes alike) build from the clean tables.
func TestApplyFailureIsAtomic(t *testing.T) {
	cases := []struct {
		name string
		bad  Edit
		want error
	}{
		{"duplicate principal", AddPrincipal("alice", lattice.Class{}), ErrExists},
		{"principal named like a group", AddPrincipal("staff", lattice.Class{}), ErrExists},
		{"duplicate group", AddGroup("staff"), ErrExists},
		{"cycle", AddMember("staff", "staff"), ErrCycle},
		{"missing group", AddMember("nope", "alice"), ErrNotFound},
		{"missing member", AddMember("staff", "nobody"), ErrNotFound},
		{"remove non-member", RemoveMember("staff", "carol"), ErrNotFound},
		{"bad name", AddGroup("bad name"), ErrBadName},
	}
	for _, tc := range cases {
		r, lat := newTestRegistry(t)
		c := lat.MustClass("others")
		if tc.bad.op == "add-principal" {
			tc.bad.class = c
		}
		if _, err := r.Apply(
			AddPrincipal("alice", c), AddPrincipal("bob", c),
			AddGroup("staff"), AddGroup("company"),
			AddMember("staff", "alice"), AddMember("company", "staff"),
		); err != nil {
			t.Fatal(err)
		}
		v0, f0 := r.Version(), r.Freeze()
		_, err := r.Apply(
			AddPrincipal("carol", c),
			AddGroup("ops"),
			AddMember("ops", "carol"),
			AddMember("staff", "bob"),
			RemoveMember("staff", "alice"),
			RemoveMember("company", "staff"),
			tc.bad,
		)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if r.Version() != v0 || r.Freeze() != f0 {
			t.Fatalf("%s: failed Apply published", tc.name)
		}
		// The builder tables are back where they were: a full rebuild
		// and an incremental patch both reproduce the old rows, and the
		// next principal takes the next dense ID.
		for _, incremental := range []bool{true, false} {
			r.SetIncrementalFreeze(incremental)
			if _, err := r.Apply(AddPrincipal(fmt.Sprintf("dave%v", incremental), c)); err != nil {
				t.Fatalf("%s: Apply after rollback: %v", tc.name, err)
			}
			f := r.Freeze()
			if f.HasGroup("ops") {
				t.Fatalf("%s: rolled-back group survived", tc.name)
			}
			if _, err := f.Principal("carol"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s: rolled-back principal survived", tc.name)
			}
			if !f.IsMember("alice", "staff") || !f.IsMember("alice", "company") || f.IsMember("bob", "staff") {
				t.Fatalf("%s: membership rows changed", tc.name)
			}
		}
		if p, _ := r.Principal("davetrue"); p.ID() != 2 {
			t.Fatalf("%s: next principal took ID %d, want 2", tc.name, p.ID())
		}
		checkReverseIndex(t, r.Freeze())
	}
}
