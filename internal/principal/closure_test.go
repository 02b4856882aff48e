package principal

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// naiveMember decides transitive membership by a depth-first walk of
// f's direct-member lists: the reference every derived closure is
// checked against.
func naiveMember(f *Frozen, p, g string) bool {
	members, err := f.Members(g)
	if err != nil {
		return false
	}
	for _, m := range members {
		if m == p || strings.HasPrefix(m, "@") && naiveMember(f, p, m[1:]) {
			return true
		}
	}
	return false
}

// checkClosure asserts that f's closure (IsMember, GroupsOf) equals the
// naive one for every principal and group, and that the reverse index
// mirrors it.
func checkClosure(t *testing.T, f *Frozen, context string) {
	t.Helper()
	for _, p := range f.Principals() {
		var want []string
		for _, g := range f.Groups() {
			naive := naiveMember(f, p, g)
			if got := f.IsMember(p, g); got != naive {
				t.Fatalf("%s: v%d: IsMember(%s, %s) = %v, naive closure says %v", context, f.Version(), p, g, got, naive)
			}
			if naive {
				want = append(want, g)
			}
		}
		if got := f.GroupsOf(p); !slices.Equal(got, want) {
			t.Fatalf("%s: v%d: GroupsOf(%s) = %v, want %v", context, f.Version(), p, got, want)
		}
	}
	checkReverseIndex(t, f)
}

// TestApplyMatchesNaiveClosure drives a mixed mutation sequence —
// membership edits, new principals and groups, subgroup edges added
// and removed, bulk ops — and after every step asserts the derived
// closure equals the naive one.
func TestApplyMatchesNaiveClosure(t *testing.T) {
	r, lat := newTestRegistry(t)
	bot, _ := lat.Bottom()
	for i := 0; i < 6; i++ {
		if _, err := r.Apply(AddPrincipal(fmt.Sprintf("p%d", i), bot)); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []string{"g0", "g1", "g2"} {
		if _, err := r.Apply(AddGroup(g)); err != nil {
			t.Fatal(err)
		}
	}
	// Nest g0 ⊂ g1 ⊂ g2 so membership edits in g0 must propagate to the
	// supersets through the retained super sets.
	if _, err := r.Apply(AddMember("g1", "g0")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(AddMember("g2", "g1")); err != nil {
		t.Fatal(err)
	}
	checkClosure(t, r.Freeze(), "after structure")

	steps := []struct {
		name string
		op   func() error
	}{
		{"add p0 to g0", func() error { _, err := r.Apply(AddMember("g0", "p0")); return err }},
		{"add p1 to g1", func() error { _, err := r.Apply(AddMember("g1", "p1")); return err }},
		{"add p2 to g2", func() error { _, err := r.Apply(AddMember("g2", "p2")); return err }},
		{"remove p0 from g0", func() error { _, err := r.Apply(RemoveMember("g0", "p0")); return err }},
		{"bulk add", func() error {
			_, err := r.Apply(AddMember("g0", "p3"), AddMember("g0", "p4"), AddMember("g0", "p5"))
			return err
		}},
		{"bulk remove", func() error { _, err := r.Apply(RemoveMember("g0", "p3"), RemoveMember("g0", "p4")); return err }},
		{"new principal", func() error { _, err := r.Apply(AddPrincipal("late", bot)); return err }},
		{"late joins g2", func() error { _, err := r.Apply(AddMember("g2", "late")); return err }},
		{"new group", func() error { _, err := r.Apply(AddGroup("g3")); return err }},
		{"subgroup edge", func() error { _, err := r.Apply(AddMember("g3", "g2")); return err }},
		{"edit below the new edge", func() error { _, err := r.Apply(AddMember("g0", "p0")); return err }},
		{"remove subgroup edge", func() error { _, err := r.Apply(RemoveMember("g3", "g2")); return err }},
	}
	for _, s := range steps {
		if err := s.op(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		checkClosure(t, r.Freeze(), s.name)
	}
}

// TestBulkMembershipAtomic: a bulk op with one bad member applies
// nothing — the registry version does not move and no partial
// membership leaks — while a good bulk op lands every member in ONE
// version.
func TestBulkMembershipAtomic(t *testing.T) {
	r, lat := newTestRegistry(t)
	bot, _ := lat.Bottom()
	for _, p := range []string{"a", "b", "c"} {
		if _, err := r.Apply(AddPrincipal(p, bot)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Apply(AddGroup("g")); err != nil {
		t.Fatal(err)
	}

	v0 := r.Version()
	v, err := r.Apply(AddMember("g", "a"), AddMember("g", "b"), AddMember("g", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if v != v0+1 {
		t.Fatalf("bulk add landed in version %d, want %d", v, v0+1)
	}
	for _, p := range []string{"a", "b", "c"} {
		if !r.Freeze().IsMember(p, "g") {
			t.Fatalf("%s missing after bulk add", p)
		}
	}

	// Rollback: "ghost" is unknown, so a and the removal of b must both
	// be undone.
	v1 := r.Version()
	if _, err := r.Apply(AddMember("g", "a"), AddMember("g", "ghost")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("bulk add with unknown member: %v", err)
	}
	if r.Version() != v1 {
		t.Fatalf("failed bulk add moved version %d -> %d", v1, r.Version())
	}
	if _, err := r.Apply(RemoveMember("g", "b"), RemoveMember("g", "ghost")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("bulk remove with unknown member: %v", err)
	}
	if r.Version() != v1 || !r.Freeze().IsMember("b", "g") {
		t.Fatal("failed bulk remove partially applied")
	}
	// Empty bulk ops are free.
	if v, err := r.Apply(); err != nil || v != 0 {
		t.Fatalf("empty bulk add: v=%d err=%v", v, err)
	}
	if v, err := r.Apply(); err != nil || v != 0 {
		t.Fatalf("empty bulk remove: v=%d err=%v", v, err)
	}
	if r.Version() != v1 {
		t.Fatal("empty bulk op published")
	}

	// Mixed principal/subgroup bulk op rolls back across kinds too.
	if _, err := r.Apply(AddGroup("sub")); err != nil {
		t.Fatal(err)
	}
	v2 := r.Version()
	if _, err := r.Apply(AddMember("g", "sub"), AddMember("g", "ghost")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("mixed bulk add: %v", err)
	}
	if r.Version() != v2 {
		t.Fatal("failed mixed bulk add published")
	}
	if ms, _ := r.Members("g"); contains(ms, "@sub") {
		t.Fatal("subgroup edge leaked from failed bulk add")
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestIncrementalSharesUntouchedRows: a derived version must reuse the
// untouched principals' sets and only rewrite the touched rows.
func TestIncrementalSharesUntouchedRows(t *testing.T) {
	r, lat := newTestRegistry(t)
	bot, _ := lat.Bottom()
	for _, p := range []string{"hot", "cold"} {
		if _, err := r.Apply(AddPrincipal(p, bot)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Apply(AddGroup("g")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(AddMember("g", "cold")); err != nil {
		t.Fatal(err)
	}

	before := r.Freeze()
	if _, err := r.Apply(AddMember("g", "hot")); err != nil {
		t.Fatal(err)
	}
	after := r.Freeze()
	// The frozen group tables must share untouched entries with the
	// previous view, and cold's row must be the same set.
	bm, am := before.groupsOf("cold"), after.groupsOf("cold")
	if bm == nil || bm != am {
		t.Error("derived version copied an untouched principal's row")
	}
	if !after.IsMember("hot", "g") || !after.IsMember("cold", "g") {
		t.Error("patched closure wrong")
	}
	if before.IsMember("hot", "g") {
		t.Error("pinned pre-edit view mutated")
	}
}
