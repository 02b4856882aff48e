package principal

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkReverseIndex asserts the reverse index (GroupPrincipalIDs)
// agrees with the forward closure (IsMember) for every principal and
// group of a frozen view.
func checkReverseIndex(t *testing.T, f *Frozen) {
	t.Helper()
	for _, g := range f.Groups() {
		members := f.GroupPrincipalIDs(g)
		for _, p := range f.Principals() {
			id, ok := f.PrincipalID(p)
			if !ok {
				t.Fatalf("v%d: principal %q has no ID", f.Version(), p)
			}
			if got, want := members.Has(id), f.IsMember(p, g); got != want {
				t.Fatalf("v%d: reverse index says %v for (%s in %s), IsMember says %v",
					f.Version(), got, p, g, want)
			}
		}
	}
}

func TestPrincipalIDsDenseAndStable(t *testing.T) {
	reg, lat := newTestRegistry(t)
	pub := lat.MustClass("others")

	var ps []*Principal
	for i := 0; i < 70; i++ {
		_, err := reg.Apply(AddPrincipal(fmt.Sprintf("p%02d", i), pub))
		p, _ := reg.Principal(fmt.Sprintf("p%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if p.ID() != i {
			t.Fatalf("p%02d got ID %d, want arrival order %d", i, p.ID(), i)
		}
		ps = append(ps, p)
	}
	f := reg.Freeze()
	if f.NumPrincipalIDs() != 70 {
		t.Fatalf("NumPrincipalIDs = %d, want 70", f.NumPrincipalIDs())
	}
	for i, p := range ps {
		id, ok := f.PrincipalID(p.SubjectName())
		if !ok || id != i {
			t.Fatalf("PrincipalID(%s) = %d,%v, want %d,true", p.SubjectName(), id, ok, i)
		}
	}
	if _, ok := f.PrincipalID("nosuch"); ok {
		t.Fatal("unknown principal resolved")
	}

	// IDOf confirms a principal by its row: this registry's principals
	// pass, a same-named principal of another registry (with the same
	// ID) does not, nor does one this version predates.
	for i, p := range ps {
		if id, ok := f.IDOf(p); !ok || id != i {
			t.Fatalf("IDOf(%s) = %d,%v, want %d,true", p.SubjectName(), id, ok, i)
		}
	}
	other, _ := newTestRegistry(t)
	if _, err := other.Apply(AddPrincipal("p00", other.Lattice().MustClass("others"))); err != nil {
		t.Fatal(err)
	}
	if twin, _ := other.Principal("p00"); twin.ID() != 0 {
		t.Fatalf("twin ID %d", twin.ID())
	} else if _, ok := f.IDOf(twin); ok {
		t.Fatal("another registry's principal confirmed")
	}
	if _, err := reg.Apply(AddPrincipal("late", pub)); err != nil {
		t.Fatal(err)
	}
	if late, _ := reg.Principal("late"); late == nil {
		t.Fatal("late principal missing")
	} else if _, ok := f.IDOf(late); ok {
		t.Fatal("a version confirmed a principal registered after it")
	}

	// IDs must survive membership churn: the same frozen principal
	// value (and so the same ID) is shared by later versions.
	if _, err := reg.Apply(AddGroup("g")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Apply(AddMember("g", "p42")); err != nil {
		t.Fatal(err)
	}
	f2 := reg.Freeze()
	if id, ok := f2.PrincipalID("p42"); !ok || id != 42 {
		t.Fatalf("ID drifted after churn: %d,%v", id, ok)
	}
	if !f2.GroupPrincipalIDs("g").Has(42) {
		t.Fatal("reverse index missing p42 in g")
	}
	if f.GroupPrincipalIDs("g") != nil {
		t.Fatal("older version leaked a later group")
	}
	if f2.GroupPrincipalIDs("nosuch") != nil {
		t.Fatal("unknown group returned a set")
	}
}

// TestGroupMembersMatchesClosure drives a randomized mutation sequence
// (principals, groups, nested groups, adds, removes, bulk ops) and
// asserts after every publication that the reverse index exactly
// mirrors the transitive closure, and that the closure equals the
// naive one.
func TestGroupMembersMatchesClosure(t *testing.T) {
	reg, lat := newTestRegistry(t)
	pub := lat.MustClass("others")
	rng := rand.New(rand.NewSource(11))

	var principals, groups []string
	for step := 0; step < 250; step++ {
		switch op := rng.Intn(10); {
		case op == 0 || len(principals) == 0:
			name := fmt.Sprintf("p%d", len(principals))
			if _, err := reg.Apply(AddPrincipal(name, pub)); err != nil {
				t.Fatal(err)
			}
			principals = append(principals, name)
		case op == 1 || len(groups) == 0:
			name := fmt.Sprintf("g%d", len(groups))
			if _, err := reg.Apply(AddGroup(name)); err != nil {
				t.Fatal(err)
			}
			groups = append(groups, name)
		case op == 2 && len(groups) >= 2:
			// Nested group edge; cycles are rejected, which is fine.
			reg.Apply(AddMember(groups[rng.Intn(len(groups))], groups[rng.Intn(len(groups))]))
		case op <= 5:
			reg.Apply(AddMember(groups[rng.Intn(len(groups))], principals[rng.Intn(len(principals))]))
		case op <= 7:
			reg.Apply(RemoveMember(groups[rng.Intn(len(groups))], principals[rng.Intn(len(principals))]))
		case op == 8:
			var batch []string
			for i := 0; i < 3 && len(principals) > 0; i++ {
				batch = append(batch, principals[rng.Intn(len(principals))])
			}
			g := groups[rng.Intn(len(groups))]
			var edits []Edit
			for _, m := range batch {
				edits = append(edits, AddMember(g, m))
			}
			reg.Apply(edits...)
		default:
			reg.Touch()
		}
		checkClosure(t, reg.Freeze(), fmt.Sprintf("step %d", step))
	}
}
