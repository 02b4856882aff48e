package names

import (
	"fmt"
	"testing"

	"secext/internal/acl"
	"secext/internal/lattice"
)

// The decision contract every surface that computes a check is held
// to: the walk's verdict, and for a denial the walk's DeniedError. The
// internal tests below and FuzzDecisionSurfaces (through
// export_test.go) share the pieces in this file: the walk-only oracle,
// the one comparison, the query set, and the mirror's side of it.

// walkOnly returns a shadow of ep with the compiled view stripped, so
// resolveIn/checkAccessIn against it exercise the spine walk alone.
// The shadow shares every shard with ep, making it the oracle the
// compiled answers must agree with.
func walkOnly(ep *Epoch) *Epoch {
	sh := *ep
	sh.compiled = nil
	return &sh
}

// sameDecision is the one verdict comparison: two check results agree
// when both allow, when both are denials with equal DeniedError fields,
// or when both fail with the same error text.
func sameDecision(a, b error) bool {
	da, aok := a.(*DeniedError)
	db, bok := b.(*DeniedError)
	if aok || bok {
		return aok && bok && *da == *db
	}
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// queryModes are the mode sets every query asks: each single mode a
// guard groups differently, a mixed set, and all of them.
var queryModes = []acl.Mode{
	acl.Read, acl.List, acl.Write, acl.WriteAppend, acl.Delete,
	acl.Administrate, acl.Extend, acl.Read | acl.Write, acl.AllModes,
}

// missingPath is the unbound path every query set asks about.
const missingPath = "/no/such/name"

// queryPaths returns the paths a query set asks about in ep: every
// bound path when there are at most limit, else limit of them spread
// evenly with an offset that moves with the epoch version, so
// successive epochs of a large tree cover all of it; then missingPath.
func queryPaths(ep *Epoch, limit int) []string {
	var all []string
	ep.Walk(func(p string, _ *Node) { all = append(all, p) })
	if len(all) > limit {
		stride := (len(all) + limit - 1) / limit
		picked := make([]string, 0, limit)
		for i := int(ep.version % uint64(stride)); i < len(all); i += stride {
			picked = append(picked, all[i])
		}
		all = picked
	}
	return append(all, missingPath)
}

// ask checks (name, class, path, modes) against the mirror's current
// epoch. Classes are lattice-scoped, so class is re-read by its label
// in the mirror's own lattice, as a live replica would see it.
func (m *mirror) ask(name string, class lattice.Class, path string, modes acl.Mode) error {
	mc, err := m.srv.Current().Lattice().ParseClass(class.String())
	if err != nil {
		return fmt.Errorf("mirror lattice lacks %s: %w", class, err)
	}
	_, err = m.srv.Current().CheckIn(subj(name), mc, path, modes)
	return err
}

// assertMirrorDecides asks ep and the mirror's current epoch the same
// queries — every principal at its own class and an unregistered
// subject at the bottom, on queryPaths, in every queryModes set — and
// requires the same decision from both.
func assertMirrorDecides(t testing.TB, ep *Epoch, m *mirror) {
	t.Helper()
	if ep.Registry() == nil {
		return
	}
	bot, _ := ep.Lattice().Bottom()
	type asker struct {
		name  string
		class lattice.Class
	}
	askers := []asker{{"nobody", bot}}
	for _, name := range ep.Registry().Principals() {
		p, err := ep.Registry().Principal(name)
		if err != nil {
			t.Fatal(err)
		}
		askers = append(askers, asker{name, p.Class()})
	}
	for _, path := range queryPaths(ep, 64) {
		for _, a := range askers {
			for _, modes := range queryModes {
				_, want := ep.CheckIn(subj(a.name), a.class, path, modes)
				if got := m.ask(a.name, a.class, path, modes); !sameDecision(want, got) {
					t.Fatalf("v%d: %s %v on %s: primary %v, mirror %v", ep.Version(), a.name, modes, path, want, got)
				}
			}
		}
	}
}
