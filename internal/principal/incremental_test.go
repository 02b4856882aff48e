package principal

import (
	"errors"
	"fmt"
	"testing"
)

// membershipMatrix renders the full transitive membership relation of a
// frozen view as a comparable map, for equivalence checks between the
// incremental and from-scratch freeze paths.
func membershipMatrix(f *Frozen) map[string]bool {
	out := make(map[string]bool)
	for _, p := range f.Principals() {
		for _, g := range f.Groups() {
			out[p+"∈"+g] = f.IsMember(p, g)
		}
	}
	return out
}

func matrixEqual(t *testing.T, r *Registry, context string) {
	t.Helper()
	inc := membershipMatrix(r.Freeze())
	// Force a from-scratch rebuild of the same registry state and
	// compare the closures entry by entry.
	r.SetIncrementalFreeze(false)
	r.Touch()
	full := membershipMatrix(r.Freeze())
	r.SetIncrementalFreeze(true)
	if len(inc) != len(full) {
		t.Fatalf("%s: matrix sizes differ: %d vs %d", context, len(inc), len(full))
	}
	for k, v := range full {
		if inc[k] != v {
			t.Errorf("%s: incremental and full closures disagree on %s: %v vs %v", context, k, inc[k], v)
		}
	}
}

// TestIncrementalFreezeMatchesFullRebuild drives a mixed mutation
// sequence — membership edits (incremental), structural changes (full
// rebuild), bulk ops, rollback-inducing failures — and after every step
// asserts the incrementally patched closure is identical to one rebuilt
// from scratch.
func TestIncrementalFreezeMatchesFullRebuild(t *testing.T) {
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
	// supersets through the retained reach-up sets.
	if _, err := r.Apply(AddMember("g1", "g0")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(AddMember("g2", "g1")); err != nil {
		t.Fatal(err)
	}
	matrixEqual(t, r, "after structure")

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
		{"new group forces rebuild", func() error { _, err := r.Apply(AddGroup("g3")); return err }},
		{"subgroup edge forces rebuild", func() error { _, err := r.Apply(AddMember("g3", "g2")); return err }},
		{"edit after rebuild", func() error { _, err := r.Apply(AddMember("g0", "p0")); return err }},
		{"remove subgroup edge", func() error { _, err := r.Apply(RemoveMember("g3", "g2")); return err }},
	}
	for _, s := range steps {
		if err := s.op(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		matrixEqual(t, r, s.name)
	}
}

// TestFreezeCountsClassifyMutations pins which mutations take the cheap
// incremental path and which force a from-scratch rebuild.
func TestFreezeCountsClassifyMutations(t *testing.T) {
	r, lat := newTestRegistry(t)
	bot, _ := lat.Bottom()
	if _, err := r.Apply(AddPrincipal("alice", bot)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(AddGroup("g")); err != nil {
		t.Fatal(err)
	}
	base := r.FreezeCounts()

	// Membership edits: incremental.
	if _, err := r.Apply(AddMember("g", "alice")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(RemoveMember("g", "alice")); err != nil {
		t.Fatal(err)
	}
	// New principal: incremental (one new empty row).
	if _, err := r.Apply(AddPrincipal("bob", bot)); err != nil {
		t.Fatal(err)
	}
	st := r.FreezeCounts()
	if inc := st.Incremental - base.Incremental; inc != 3 {
		t.Errorf("incremental freezes = %d, want 3", inc)
	}
	if st.Full != base.Full {
		t.Errorf("membership edits took %d full rebuilds", st.Full-base.Full)
	}

	// Structural change: full rebuild.
	if _, err := r.Apply(AddGroup("h")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(AddMember("h", "g")); err != nil {
		t.Fatal(err)
	}
	st2 := r.FreezeCounts()
	if full := st2.Full - st.Full; full != 2 {
		t.Errorf("structural changes took %d full rebuilds, want 2", full)
	}

	// Incremental disabled: everything rebuilds.
	r.SetIncrementalFreeze(false)
	if _, err := r.Apply(AddMember("g", "bob")); err != nil {
		t.Fatal(err)
	}
	st3 := r.FreezeCounts()
	if st3.Full != st2.Full+1 || st3.Incremental != st2.Incremental {
		t.Errorf("disabled incremental: %+v -> %+v", st2, st3)
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

// TestIncrementalSharesUntouchedRows: an incremental freeze must reuse
// the untouched principals' bitsets and only patch the dirty rows —
// that sharing is the whole point of the delta path.
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
	if after.DeltaBase() != before.Version() {
		t.Fatalf("delta base %d, want %d", after.DeltaBase(), before.Version())
	}
	// The frozen group tables must share untouched entries with the
	// previous view, and cold's row must be the same slice.
	bm, am := before.groupsOf("cold"), after.groupsOf("cold")
	if len(bm) == 0 || &bm[0] != &am[0] {
		t.Error("incremental freeze copied an untouched principal's row")
	}
	if !after.IsMember("hot", "g") || !after.IsMember("cold", "g") {
		t.Error("patched closure wrong")
	}
	if before.IsMember("hot", "g") {
		t.Error("pinned pre-edit view mutated")
	}
}
