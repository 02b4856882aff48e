package principal

import (
	"errors"
	"fmt"
	"testing"

	"secext/internal/lattice"
)

// TestAddPrincipalsBatch checks the bulk registration path: one
// published version carries the whole batch, IDs stay dense and
// arrival-ordered, and failures leave the registry untouched.
func TestAddPrincipalsBatch(t *testing.T) {
	r, lat := newTestRegistry(t)
	c := lat.MustClass("others")
	v0 := r.Version()
	ps, err := addPrincipals(r, c, "alice", "bob", "carol")
	if err != nil {
		t.Fatalf("AddPrincipals: %v", err)
	}
	if got := r.Version(); got != v0+1 {
		t.Errorf("batch published %d versions, want 1", got-v0)
	}
	for i, want := range []string{"alice", "bob", "carol"} {
		if ps[i].SubjectName() != want || ps[i].ID() != i {
			t.Errorf("principal %d = %s id %d", i, ps[i].SubjectName(), ps[i].ID())
		}
		if _, err := r.Principal(want); err != nil {
			t.Errorf("lookup %s: %v", want, err)
		}
	}

	// All-or-nothing: a duplicate anywhere in the batch registers nothing.
	vBefore := r.Version()
	for _, batch := range [][]string{
		{"dave", "alice"},        // collides with an existing principal
		{"dave", "erin", "dave"}, // duplicate inside the batch
		{"dave", "bad name"},     // invalid name
	} {
		if _, err := addPrincipals(r, c, batch...); err == nil {
			t.Errorf("batch %v: want error", batch)
		}
		if _, err := r.Principal("dave"); !errors.Is(err, ErrNotFound) {
			t.Errorf("batch %v: partial insert survived: %v", batch, err)
		}
	}
	if _, err := r.Apply(AddGroup("staff")); err != nil {
		t.Fatal(err)
	}
	if _, err := addPrincipals(r, c, "dave", "staff"); !errors.Is(err, ErrExists) {
		t.Errorf("principal shadowing group: got %v", err)
	}
	if _, err := r.Principal("dave"); !errors.Is(err, ErrNotFound) {
		t.Error("partial insert survived group collision")
	}
	if got := r.Version(); got != vBefore+1 { // only AddGroup published
		t.Errorf("failed batches published versions: %d -> %d", vBefore, got)
	}

	// Empty batch is a no-op; a foreign-lattice class is rejected.
	if ps, err := addPrincipals(r, c); err != nil || ps != nil {
		t.Errorf("empty batch: %v %v", ps, err)
	}
	other, err := lattice.NewWithUniverse([]string{"lo", "hi"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := addPrincipals(r, other.MustClass("lo"), "zed"); !errors.Is(err, ErrInvalidClass) {
		t.Errorf("foreign class: got %v", err)
	}

	// The next ID continues the dense sequence.
	_, err = r.Apply(AddPrincipal("dave", c))
	next, _ := r.Principal("dave")
	if err != nil {
		t.Fatal(err)
	}
	if next.ID() != 3 {
		t.Errorf("post-batch ID = %d, want 3", next.ID())
	}
}

// TestAddGroupsBatch checks bulk group registration: one full freeze
// for the batch, all-or-nothing on collisions.
func TestAddGroupsBatch(t *testing.T) {
	r, lat := newTestRegistry(t)
	if _, err := r.Apply(AddPrincipal("alice", lat.MustClass("others"))); err != nil {
		t.Fatal(err)
	}
	full0 := r.FreezeCounts().Full
	if err := r.AddGroups("staff", "admins", "ops"); err != nil {
		t.Fatalf("AddGroups: %v", err)
	}
	if got := r.FreezeCounts().Full - full0; got != 1 {
		t.Errorf("batch paid %d full freezes, want 1", got)
	}
	if got := r.Groups(); len(got) != 3 {
		t.Errorf("Groups = %v", got)
	}
	for _, batch := range [][]string{
		{"dev", "staff"},     // collides with an existing group
		{"dev", "qa", "dev"}, // duplicate inside the batch
		{"dev", "alice"},     // collides with a principal
	} {
		if err := r.AddGroups(batch...); !errors.Is(err, ErrExists) {
			t.Errorf("batch %v: got %v", batch, err)
		}
		if r.Freeze().HasGroup("dev") {
			t.Errorf("batch %v: partial insert survived", batch)
		}
	}
	if err := r.AddGroups(); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestAddMembershipsBulk checks the cross-group bulk grant: one
// version for the whole map, rollback on failure, and membership rows
// identical to what per-group AddMembers would have produced.
func TestAddMembershipsBulk(t *testing.T) {
	r, lat := newTestRegistry(t)
	c := lat.MustClass("others")
	if _, err := addPrincipals(r, c, "alice", "bob", "carol", "dave"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddGroups("staff", "admins", "everyone"); err != nil {
		t.Fatal(err)
	}
	v0 := r.Version()
	v, err := r.AddMemberships(map[string][]string{
		"staff":    {"alice", "bob"},
		"admins":   {"carol"},
		"everyone": {"dave"},
	})
	if err != nil {
		t.Fatalf("AddMemberships: %v", err)
	}
	if v != r.Version() || v != v0+1 {
		t.Errorf("bulk grant landed at %d (registry %d, before %d)", v, r.Version(), v0)
	}
	for _, tc := range []struct {
		p, g string
		want bool
	}{
		{"alice", "staff", true}, {"bob", "staff", true},
		{"carol", "admins", true}, {"dave", "everyone", true},
		{"alice", "admins", false}, {"dave", "staff", false},
	} {
		if got := r.IsMember(tc.p, tc.g); got != tc.want {
			t.Errorf("IsMember(%s, %s) = %v", tc.p, tc.g, got)
		}
	}

	// Nested group grants work through the same map.
	if _, err := r.AddMemberships(map[string][]string{"everyone": {"staff"}}); err != nil {
		t.Fatal(err)
	}
	if !r.IsMember("alice", "everyone") {
		t.Error("nested grant missing from closure")
	}

	// Rollback: an unknown member anywhere undoes every prior edit.
	vBefore := r.Version()
	if _, err := r.AddMemberships(map[string][]string{
		"admins": {"alice"},
		"staff":  {"nobody"},
	}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown member: got %v", err)
	}
	if r.IsMember("alice", "admins") {
		t.Error("rolled-back grant is visible")
	}
	if r.Version() != vBefore {
		t.Error("failed bulk grant published a version")
	}

	// Empty and all-empty maps are no-ops returning version 0.
	if v, err := r.AddMemberships(nil); err != nil || v != 0 {
		t.Errorf("nil map: %d %v", v, err)
	}
	if v, err := r.AddMemberships(map[string][]string{"staff": nil}); err != nil || v != 0 {
		t.Errorf("all-empty map: %d %v", v, err)
	}
}

// TestBulkMatchesPerEntityRows populates one registry through the
// batch APIs and another through per-entity calls and demands
// identical closures — the bulk freeze walks membership edges while
// small freezes walk dirty principals (see freezeLocked), and both
// orders must compute the same rows.
func TestBulkMatchesPerEntityRows(t *testing.T) {
	const principals, groups = 96, 8
	lat, err := lattice.NewWithUniverse([]string{"lo", "hi"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := lat.MustClass("lo")
	pname := func(i int) string { return fmt.Sprintf("p%03d", i) }
	gname := func(g int) string { return fmt.Sprintf("g%d", g) }

	bulk, single := NewRegistry(lat), NewRegistry(lat)
	names := make([]string, principals)
	gnames := make([]string, groups)
	grants := make(map[string][]string, groups)
	for i := range names {
		names[i] = pname(i)
		grants[gname(i%groups)] = append(grants[gname(i%groups)], pname(i))
	}
	for g := range gnames {
		gnames[g] = gname(g)
	}
	if _, err := addPrincipals(bulk, c, names...); err != nil {
		t.Fatal(err)
	}
	if err := bulk.AddGroups(gnames...); err != nil {
		t.Fatal(err)
	}
	if _, err := bulk.AddMemberships(grants); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if _, err := single.Apply(AddPrincipal(n, c)); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range gnames {
		if _, err := single.Apply(AddGroup(g)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < principals; i++ {
		if _, err := single.Apply(AddMember(gname(i%groups), pname(i))); err != nil {
			t.Fatal(err)
		}
	}
	// One small edit on top of the bulk registry exercises the
	// dirty-principal walk after the edge walk populated the tables.
	if _, err := bulk.Apply(AddMember(gname(0), pname(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := single.Apply(AddMember(gname(0), pname(1))); err != nil {
		t.Fatal(err)
	}

	fb, fs := bulk.Freeze(), single.Freeze()
	for i := 0; i < principals; i++ {
		for g := 0; g < groups; g++ {
			if b, s := fb.IsMember(pname(i), gname(g)), fs.IsMember(pname(i), gname(g)); b != s {
				t.Fatalf("IsMember(%s, %s): bulk %v, single %v", pname(i), gname(g), b, s)
			}
		}
		if b, ok := fb.PrincipalID(pname(i)); !ok || b != i {
			t.Fatalf("bulk ID of %s = %d", pname(i), b)
		}
	}
	for g := 0; g < groups; g++ {
		b, s := fb.GroupPrincipalIDs(gname(g)), fs.GroupPrincipalIDs(gname(g))
		for w := range b {
			if b[w] != s[w] {
				t.Fatalf("group %s reverse-index word %d: bulk %x, single %x", gname(g), w, b[w], s[w])
			}
		}
	}
}

// addPrincipals registers names at class c in one Apply and returns the
// new principals.
func addPrincipals(r *Registry, c lattice.Class, names ...string) ([]*Principal, error) {
	edits := make([]Edit, len(names))
	for i, n := range names {
		edits[i] = AddPrincipal(n, c)
	}
	if _, err := r.Apply(edits...); err != nil {
		return nil, err
	}
	var out []*Principal
	for _, n := range names {
		p, err := r.Principal(n)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
