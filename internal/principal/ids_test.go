package principal

import (
	"fmt"
	"math/rand"
	"testing"
)

// idHas reports whether bit id is set in raw reverse-index words.
func idHas(words []uint64, id int) bool {
	w := id / 64
	return w < len(words) && words[w]&(1<<uint(id%64)) != 0
}

// checkReverseIndex asserts the reverse index (GroupPrincipalIDs)
// agrees with the forward closure (IsMember) for every principal and
// group of a frozen view.
func checkReverseIndex(t *testing.T, f *Frozen) {
	t.Helper()
	for _, g := range f.Groups() {
		words := f.GroupPrincipalIDs(g)
		for _, p := range f.Principals() {
			id, ok := f.PrincipalID(p)
			if !ok {
				t.Fatalf("v%d: principal %q has no ID", f.Version(), p)
			}
			if got, want := idHas(words, id), f.IsMember(p, g); got != want {
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
	if !idHas(f2.GroupPrincipalIDs("g"), 42) {
		t.Fatal("reverse index missing p42 in g")
	}
	if f.GroupPrincipalIDs("g") != nil {
		t.Fatal("older version leaked a later group")
	}
	if f2.GroupPrincipalIDs("nosuch") != nil {
		t.Fatal("unknown group returned words")
	}
}

// TestGroupMembersMatchesClosure drives a randomized mutation sequence
// (principals, groups, nested groups, adds, removes, bulk ops) with the
// incremental freeze path on and asserts after every publication that
// the reverse index exactly mirrors the transitive closure — and that a
// full rebuild of the same builder state produces an equivalent index.
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
		checkReverseIndex(t, reg.Freeze())
	}

	// The final incremental chain must match a from-scratch rebuild.
	inc := reg.Freeze()
	reg.SetIncrementalFreeze(false)
	reg.Touch()
	full := reg.Freeze()
	if full.DeltaBase() != 0 {
		t.Fatal("expected a full rebuild")
	}
	for _, g := range full.Groups() {
		iw, fw := inc.GroupPrincipalIDs(g), full.GroupPrincipalIDs(g)
		for _, p := range full.Principals() {
			id, _ := full.PrincipalID(p)
			if idHas(iw, id) != idHas(fw, id) {
				t.Fatalf("incremental and full reverse indexes disagree on (%s in %s)", p, g)
			}
		}
	}
}
