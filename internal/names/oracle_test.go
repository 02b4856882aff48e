package names

// Property test for the monitor refactor: CheckAccess routed through
// the guard pipeline must agree with an independent oracle that
// reimplements the pre-refactor decision procedure (the inlined
// inlined DAC check plus MAC flow-rule logic) over randomized protection states.
// Any divergence is a semantics change the port was not allowed to make.

import (
	"fmt"
	"math/rand"
	"testing"

	"secext/internal/acl"
	"secext/internal/lattice"
)

// oracleState is the test's shadow copy of the protection state.
type oracleState struct {
	lat *lattice.Lattice
	// acl and class per existing path; parent links are implied by the
	// path structure.
	acls    map[string]*acl.ACL
	classes map[string]lattice.Class
}

// oracleCheck is the pre-refactor decision procedure, written directly
// from the original inlined rules: List (DAC) plus read-flow (MAC) on
// every node strictly above the target, then the requested modes (DAC)
// plus the grouped flow rules (MAC) on the target itself.
func (o *oracleState) oracleCheck(sub acl.Subject, class lattice.Class, path string, modes acl.Mode) bool {
	ancestors := []string{"/"}
	for i := 1; i < len(path); i++ {
		if path[i] == '/' {
			ancestors = append(ancestors, path[:i])
		}
	}
	for _, anc := range ancestors {
		if !o.acls[anc].Check(sub, acl.List) {
			return false
		}
		if !o.oracleMAC(class, o.classes[anc], acl.List) {
			return false
		}
	}
	return o.acls[path].Check(sub, modes) && o.oracleMAC(class, o.classes[path], modes)
}

// oracleMAC is the original flow-rule grouping, verbatim.
func (o *oracleState) oracleMAC(subject, object lattice.Class, modes acl.Mode) bool {
	const readGroup = acl.Read | acl.List | acl.Execute | acl.Extend
	const writeGroup = acl.Write | acl.Delete | acl.Administrate
	if modes&readGroup != 0 && !subject.CanRead(object) {
		return false
	}
	if modes&writeGroup != 0 && !subject.CanWrite(object) {
		return false
	}
	if modes&acl.WriteAppend != 0 && !subject.CanAppend(object) {
		return false
	}
	return true
}

// randomACL builds an ACL with random allow/deny entries over the given
// principals plus occasional everyone entries.
func randomACL(rng *rand.Rand, principals []string) *acl.ACL {
	var entries []acl.Entry
	n := rng.Intn(4)
	for i := 0; i < n; i++ {
		modes := acl.Mode(rng.Intn(int(acl.AllModes))) + 1
		switch rng.Intn(4) {
		case 0:
			entries = append(entries, acl.AllowEveryone(modes))
		case 1:
			entries = append(entries, acl.Deny(principals[rng.Intn(len(principals))], modes))
		default:
			entries = append(entries, acl.Allow(principals[rng.Intn(len(principals))], modes))
		}
	}
	// Bias toward listable containers so traversal sometimes succeeds.
	if rng.Intn(2) == 0 {
		entries = append(entries, acl.AllowEveryone(acl.List))
	}
	return acl.New(entries...)
}

func TestCheckAccessMatchesPreRefactorOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	lat, err := lattice.NewWithUniverse([]string{"l0", "l1", "l2"}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	bottom, err := lat.Bottom()
	if err != nil {
		t.Fatal(err)
	}
	classPool := []lattice.Class{
		bottom,
		lat.MustClass("l0", "a"),
		lat.MustClass("l1"),
		lat.MustClass("l1", "a", "b"),
		lat.MustClass("l2", "b"),
		lat.MustClass("l2", "a", "b"),
	}
	principals := []string{"p0", "p1", "p2"}
	subjects := make([]acl.Subject, len(principals))
	for i, p := range principals {
		subjects[i] = fakeSubject{name: p}
	}

	for round := 0; round < 20; round++ {
		rootACL := randomACL(rng, principals)
		srv := NewServer(lat, rootACL, bottom)
		o := &oracleState{
			lat:     lat,
			acls:    map[string]*acl.ACL{"/": rootACL},
			classes: map[string]lattice.Class{"/": bottom},
		}

		// Random two-level tree, built unchecked on both sides.
		var leaves []string
		for d := 0; d < 3; d++ {
			dir := fmt.Sprintf("/d%d", d)
			dACL, dClass := randomACL(rng, principals), classPool[rng.Intn(len(classPool))]
			if _, err := srv.BindUnchecked("/", BindSpec{
				Name: fmt.Sprintf("d%d", d), Kind: KindDirectory, ACL: dACL, Class: dClass,
			}); err != nil {
				t.Fatal(err)
			}
			o.acls[dir], o.classes[dir] = dACL, dClass
			leaves = append(leaves, dir)
			for f := 0; f < 3; f++ {
				leaf := fmt.Sprintf("%s/f%d", dir, f)
				fACL, fClass := randomACL(rng, principals), classPool[rng.Intn(len(classPool))]
				if _, err := srv.BindUnchecked(dir, BindSpec{
					Name: fmt.Sprintf("f%d", f), Kind: KindFile, ACL: fACL, Class: fClass,
				}); err != nil {
					t.Fatal(err)
				}
				o.acls[leaf], o.classes[leaf] = fACL, fClass
				leaves = append(leaves, leaf)
			}
		}

		for q := 0; q < 400; q++ {
			sub := subjects[rng.Intn(len(subjects))]
			class := classPool[rng.Intn(len(classPool))]
			path := leaves[rng.Intn(len(leaves))]
			modes := acl.Mode(rng.Intn(int(acl.AllModes))) + 1

			want := o.oracleCheck(sub, class, path, modes)
			_, _, err := srv.CheckAccessAt(sub, class, path, modes)
			if got := err == nil; got != want {
				t.Fatalf("round %d: CheckAccessAt(%s, %s, %s, %s) = %v (err=%v); oracle says %v",
					round, sub.SubjectName(), class, path, modes, got, err, want)
			}
		}
	}
}
