package principal

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"secext/internal/lattice"
)

func newTestRegistry(t *testing.T) (*Registry, *lattice.Lattice) {
	t.Helper()
	lat, err := lattice.NewWithUniverse(
		[]string{"others", "organization", "local"},
		[]string{"myself", "dept-1", "dept-2", "outside"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return NewRegistry(lat), lat
}

func TestAddAndLookupPrincipal(t *testing.T) {
	r, lat := newTestRegistry(t)
	_, err := r.Apply(AddPrincipal("alice", lat.MustClass("local", "myself")))
	alice, _ := r.Principal("alice")
	if err != nil {
		t.Fatalf("AddPrincipal: %v", err)
	}
	if alice.SubjectName() != "alice" {
		t.Errorf("SubjectName = %q", alice.SubjectName())
	}
	if alice.Class().String() != "local:{myself}" {
		t.Errorf("Class = %s", alice.Class())
	}
	got, err := r.Principal("alice")
	if err != nil || got != alice {
		t.Errorf("Principal lookup: %v %v", got, err)
	}
	if _, err := r.Principal("bob"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing principal: got %v, want ErrNotFound", err)
	}
}

func TestDuplicateAndBadNames(t *testing.T) {
	r, lat := newTestRegistry(t)
	c := lat.MustClass("others")
	if _, err := r.Apply(AddPrincipal("alice", c)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(AddPrincipal("alice", c)); !errors.Is(err, ErrExists) {
		t.Errorf("dup principal: got %v", err)
	}
	if _, err := r.Apply(AddGroup("alice")); !errors.Is(err, ErrExists) {
		t.Errorf("group shadowing principal: got %v", err)
	}
	if _, err := r.Apply(AddGroup("staff")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(AddGroup("staff")); !errors.Is(err, ErrExists) {
		t.Errorf("dup group: got %v", err)
	}
	if _, err := r.Apply(AddPrincipal("staff", c)); !errors.Is(err, ErrExists) {
		t.Errorf("principal shadowing group: got %v", err)
	}
	for _, bad := range []string{"", "*", "a b", "a@b", "a;b", "a/b"} {
		if _, err := r.Apply(AddPrincipal(bad, c)); !errors.Is(err, ErrBadName) {
			t.Errorf("AddPrincipal(%q): got %v, want ErrBadName", bad, err)
		}
		if _, err := r.Apply(AddGroup(bad)); !errors.Is(err, ErrBadName) {
			t.Errorf("AddGroup(%q): got %v, want ErrBadName", bad, err)
		}
	}
}

func TestForeignLatticeClass(t *testing.T) {
	r, _ := newTestRegistry(t)
	other, _ := lattice.NewWithUniverse([]string{"x"}, nil)
	if _, err := r.Apply(AddPrincipal("p", other.MustClass("x"))); !errors.Is(err, ErrInvalidClass) {
		t.Errorf("got %v, want ErrInvalidClass", err)
	}
}

func TestTransitiveMembership(t *testing.T) {
	r, lat := newTestRegistry(t)
	c := lat.MustClass("organization", "dept-1")
	r.Apply(AddPrincipal("alice", c))
	alice, _ := r.Principal("alice")
	must := func(_ uint64, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.Apply(AddGroup("kernel-team")))
	must(r.Apply(AddGroup("engineering")))
	must(r.Apply(AddGroup("company")))
	must(r.Apply(AddMember("kernel-team", "alice")))
	must(r.Apply(AddMember("engineering", "kernel-team")))
	must(r.Apply(AddMember("company", "engineering")))

	for _, g := range []string{"kernel-team", "engineering", "company"} {
		if !alice.MemberOf(g) {
			t.Errorf("alice must be transitive member of %s", g)
		}
	}
	if alice.MemberOf("nonexistent") {
		t.Error("membership in unknown group must be false")
	}
	groups := alice.Groups()
	if len(groups) != 3 || groups[0] != "company" {
		t.Errorf("Groups = %v", groups)
	}

	must(r.Apply(RemoveMember("engineering", "kernel-team")))
	if alice.MemberOf("company") {
		t.Error("removing the chain link must break transitive membership")
	}
	if !alice.MemberOf("kernel-team") {
		t.Error("direct membership must survive")
	}
}

func TestCycleRejection(t *testing.T) {
	r, _ := newTestRegistry(t)
	for _, g := range []string{"a", "b", "c"} {
		if _, err := r.Apply(AddGroup(g)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Apply(AddMember("a", "b")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(AddMember("b", "c")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(AddMember("c", "a")); !errors.Is(err, ErrCycle) {
		t.Errorf("3-cycle: got %v, want ErrCycle", err)
	}
	if _, err := r.Apply(AddMember("a", "a")); !errors.Is(err, ErrCycle) {
		t.Errorf("self-cycle: got %v, want ErrCycle", err)
	}
}

func TestMembershipErrors(t *testing.T) {
	r, lat := newTestRegistry(t)
	if _, err := r.Apply(AddMember("nope", "x")); !errors.Is(err, ErrNotFound) {
		t.Errorf("AddMember to missing group: %v", err)
	}
	if _, err := r.Apply(AddGroup("g")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(AddMember("g", "ghost")); !errors.Is(err, ErrNotFound) {
		t.Errorf("AddMember of unknown member: %v", err)
	}
	if _, err := r.Apply(RemoveMember("g", "ghost")); !errors.Is(err, ErrNotFound) {
		t.Errorf("RemoveMember of non-member: %v", err)
	}
	if _, err := r.Apply(RemoveMember("nope", "x")); !errors.Is(err, ErrNotFound) {
		t.Errorf("RemoveMember from missing group: %v", err)
	}
	if _, err := r.Members("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Members of missing group: %v", err)
	}
	if _, err := r.Apply(AddPrincipal("p", lat.MustClass("others"))); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(AddMember("g", "p")); err != nil {
		t.Fatal(err)
	}
	ms, err := r.Members("g")
	if err != nil || len(ms) != 1 || ms[0] != "p" {
		t.Errorf("Members = %v, %v", ms, err)
	}
}

func TestMembersListsGroupsWithPrefix(t *testing.T) {
	r, lat := newTestRegistry(t)
	if _, err := r.Apply(AddPrincipal("bob", lat.MustClass("others"))); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"inner", "outer"} {
		if _, err := r.Apply(AddGroup(g)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Apply(AddMember("outer", "bob")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(AddMember("outer", "inner")); err != nil {
		t.Fatal(err)
	}
	ms, err := r.Members("outer")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0] != "@inner" || ms[1] != "bob" {
		t.Errorf("Members = %v", ms)
	}
}

func TestTokens(t *testing.T) {
	r, lat := newTestRegistry(t)
	r.Apply(AddPrincipal("alice", lat.MustClass("local")))
	alice, _ := r.Principal("alice")
	tok, err := r.IssueToken("alice")
	if err != nil {
		t.Fatalf("IssueToken: %v", err)
	}
	got, err := r.Authenticate(tok)
	if err != nil || got != alice {
		t.Fatalf("Authenticate: %v %v", got, err)
	}
	// Tampered tokens fail.
	if _, err := r.Authenticate(tok[:len(tok)-2] + "xx"); !errors.Is(err, ErrBadToken) {
		t.Errorf("tampered sig: got %v", err)
	}
	if _, err := r.Authenticate("bob." + strings.Split(tok, ".")[1]); err == nil {
		t.Error("renamed token must fail")
	}
	if _, err := r.Authenticate("garbage"); !errors.Is(err, ErrBadToken) {
		t.Errorf("garbage token: got %v", err)
	}
	if _, err := r.Authenticate("alice.!!!"); !errors.Is(err, ErrBadToken) {
		t.Errorf("bad base64: got %v", err)
	}
	if _, err := r.IssueToken("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("token for unknown principal: got %v", err)
	}
	// Tokens from a different registry (different secret) fail.
	r2, lat2 := NewRegistry(lat), lat
	_ = lat2
	if _, err := r2.Apply(AddPrincipal("alice", lat.MustClass("local"))); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Authenticate(tok); !errors.Is(err, ErrBadToken) {
		t.Errorf("cross-registry token: got %v", err)
	}
}

func TestRegistryAccessors(t *testing.T) {
	r, lat := newTestRegistry(t)
	if _, err := r.Apply(AddPrincipal("zed", lat.MustClass("others"))); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(AddPrincipal("amy", lat.MustClass("others"))); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(AddGroup("g1")); err != nil {
		t.Fatal(err)
	}
	ps := r.Principals()
	if len(ps) != 2 || ps[0] != "amy" || ps[1] != "zed" {
		t.Errorf("Principals = %v", ps)
	}
	gs := r.Groups()
	if len(gs) != 1 || gs[0] != "g1" {
		t.Errorf("Groups = %v", gs)
	}
	if r.Lattice() != lat {
		t.Error("Lattice accessor")
	}
	p, _ := r.Principal("amy")
	if s := p.String(); !strings.Contains(s, "amy@others") {
		t.Errorf("String = %q", s)
	}
}

func TestConcurrentMembership(t *testing.T) {
	r, lat := newTestRegistry(t)
	r.Apply(AddPrincipal("alice", lat.MustClass("others")))
	alice, _ := r.Principal("alice")
	if _, err := r.Apply(AddGroup("g0")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(AddMember("g0", "alice")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = alice.MemberOf("g0")
				_ = alice.Groups()
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := "grp" + string(rune('a'+i))
			if _, err := r.Apply(AddGroup(name)); err != nil {
				t.Errorf("AddGroup(%s): %v", name, err)
				return
			}
			if _, err := r.Apply(AddMember(name, "alice")); err != nil {
				t.Errorf("AddMember: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if got := len(alice.Groups()); got != 5 {
		t.Errorf("alice in %d groups, want 5", got)
	}
}
