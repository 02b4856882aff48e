package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"secext/internal/acl"
	"secext/internal/dispatch"
	"secext/internal/lattice"
	"secext/internal/names"
	"secext/internal/principal"
	"secext/internal/subject"
)

// propWorld is a randomized protection state: principals with random
// classes and group memberships, objects with random ACLs and classes.
type propWorld struct {
	sys     *System
	ctxs    []*subject.Context
	objects []string
}

var propModes = []acl.Mode{
	acl.Read, acl.Write, acl.WriteAppend, acl.Execute,
	acl.Extend, acl.Delete, acl.List, acl.Administrate,
	acl.Read | acl.Write, acl.Execute | acl.Extend,
}

func buildPropWorld(t *testing.T, r *rand.Rand) *propWorld {
	t.Helper()
	levels := []string{"l0", "l1", "l2"}
	cats := []string{"a", "b", "c"}
	sys, err := NewSystem(Options{Levels: levels, Categories: cats, DisableAudit: true})
	if err != nil {
		t.Fatal(err)
	}
	randClass := func() lattice.Class {
		var chosen []string
		for _, c := range cats {
			if r.Intn(2) == 0 {
				chosen = append(chosen, c)
			}
		}
		return sys.Lattice().MustClass(levels[r.Intn(len(levels))], chosen...)
	}
	// Groups.
	groups := []string{"g0", "g1"}
	for _, g := range groups {
		if _, err := sys.Registry().Apply(principal.AddGroup(g)); err != nil {
			t.Fatal(err)
		}
	}
	// Principals.
	w := &propWorld{sys: sys}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("p%d", i)
		if _, err := sys.Registry().Apply(principal.AddPrincipal(name, randClass())); err != nil {
			t.Fatal(err)
		}
		for _, g := range groups {
			if r.Intn(2) == 0 {
				if _, err := sys.Registry().Apply(principal.AddMember(g, name)); err != nil {
					t.Fatal(err)
				}
			}
		}
		ctx, err := sys.NewContext(name)
		if err != nil {
			t.Fatal(err)
		}
		w.ctxs = append(w.ctxs, ctx)
	}
	// Objects with random ACLs under a wide-open interior node, so the
	// target check is the one under test.
	if _, err := sys.CreateNode(NodeSpec{Path: "/o", Kind: names.KindObject,
		ACL: acl.New(acl.AllowEveryone(acl.List))}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		a := acl.New()
		for e := 0; e < r.Intn(5); e++ {
			var entry acl.Entry
			mode := propModes[r.Intn(len(propModes))]
			switch r.Intn(3) {
			case 0:
				entry = acl.Entry{Kind: acl.Principal, Who: fmt.Sprintf("p%d", r.Intn(4)), Modes: mode}
			case 1:
				entry = acl.Entry{Kind: acl.Group, Who: groups[r.Intn(len(groups))], Modes: mode}
			case 2:
				entry = acl.Entry{Kind: acl.Everyone, Modes: mode}
			}
			entry.Deny = r.Intn(3) == 0
			a.Add(entry)
		}
		path := fmt.Sprintf("/o/obj%d", i)
		if _, err := sys.CreateNode(NodeSpec{
			Path: path, Kind: names.KindFile, ACL: a, Class: randClass(),
		}); err != nil {
			t.Fatal(err)
		}
		w.objects = append(w.objects, path)
	}
	return w
}

// TestPropMediationSoundness replays the monitor's decision against an
// independent re-derivation of the paper's rules: the monitor must
// allow exactly when (a) the ACL grants every requested mode after
// deny-overrides and (b) each requested mode satisfies its lattice flow
// rule. Any drift between internal/names's check path and the model is
// a finding.
func TestPropMediationSoundness(t *testing.T) {
	const readGroup = acl.Read | acl.List | acl.Execute | acl.Extend
	const writeGroup = acl.Write | acl.Delete | acl.Administrate
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := buildPropWorld(t, r)
		for _, ctx := range w.ctxs {
			for _, obj := range w.objects {
				node, rerr := w.sys.Names().ResolveUnchecked(obj)
				if rerr != nil {
					t.Fatal(rerr)
				}
				a, aerr := w.sys.Names().ACLOf(obj)
				if aerr != nil {
					t.Fatal(aerr)
				}
				for _, modes := range propModes {
					_, err := w.sys.CheckData(ctx, obj, modes)
					got := err == nil

					want := a.Check(ctx, modes)
					if modes&readGroup != 0 && !ctx.Class().CanRead(node.Class()) {
						want = false
					}
					if modes&writeGroup != 0 && !ctx.Class().CanWrite(node.Class()) {
						want = false
					}
					if modes&acl.WriteAppend != 0 && !ctx.Class().CanAppend(node.Class()) {
						want = false
					}
					if got != want {
						t.Fatalf("seed %d: %s %v on %s: monitor=%v model=%v (subject %s, object %s, acl %s)",
							seed, ctx.SubjectName(), modes, obj, got, want,
							ctx.Class(), node.Class(), a)
					}
				}
			}
		}
	}
}

// TestPropNoAmplification spawns random call chains through services
// with random static classes and asserts the handler never observes a
// class its caller did not dominate — statically classed extensions can
// only shed authority (§2.2).
func TestPropNoAmplification(t *testing.T) {
	f := func(seed int64, depth uint8) bool {
		r := rand.New(rand.NewSource(seed))
		levels := []string{"l0", "l1", "l2"}
		cats := []string{"a", "b", "c", "d"}
		sys, err := NewSystem(Options{Levels: levels, Categories: cats, DisableAudit: true})
		if err != nil {
			return false
		}
		randClass := func() lattice.Class {
			var chosen []string
			for _, c := range cats {
				if r.Intn(2) == 0 {
					chosen = append(chosen, c)
				}
			}
			return sys.Lattice().MustClass(levels[r.Intn(len(levels))], chosen...)
		}
		caller := randClass()
		if _, err := sys.Registry().Apply(principal.AddPrincipal("p", caller)); err != nil {
			return false
		}
		ctx, err := sys.NewContext("p")
		if err != nil {
			return false
		}
		n := int(depth%8) + 1
		ok := true
		for i := 0; i < n; i++ {
			static := lattice.Class{}
			if r.Intn(2) == 0 {
				static = randClass()
			}
			child, err := ctx.Derive(fmt.Sprintf("/s%d", i), static)
			if err != nil {
				return false
			}
			// The invariant: the parent always dominates the child.
			if !ctx.Class().Dominates(child.Class()) {
				ok = false
			}
			// And the static class, when present, also bounds it.
			if static.Valid() && !static.Dominates(child.Class()) {
				ok = false
			}
			ctx = child
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropDispatchNeverSelectsUndominated asserts the §2.2 selection
// rule: whatever binding the dispatcher picks for a caller, its static
// class is dominated by the caller's class.
func TestPropDispatchNeverSelectsUndominated(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		levels := []string{"l0", "l1", "l2"}
		cats := []string{"a", "b", "c"}
		sys, err := NewSystem(Options{Levels: levels, Categories: cats, DisableAudit: true})
		if err != nil {
			return false
		}
		randClass := func() lattice.Class {
			var chosen []string
			for _, c := range cats {
				if r.Intn(2) == 0 {
					chosen = append(chosen, c)
				}
			}
			return sys.Lattice().MustClass(levels[r.Intn(len(levels))], chosen...)
		}
		noop := func(ctx *subject.Context, arg any) (any, error) { return nil, nil }
		if err := sys.RegisterService(ServiceSpec{
			Path: "/s", ACL: acl.New(acl.AllowEveryone(acl.Execute)),
			Base: dispatch.Binding{Owner: "base", Handler: noop},
		}); err != nil {
			return false
		}
		for i := 0; i < 1+r.Intn(6); i++ {
			if err := sys.Dispatcher().Extend("/s", dispatch.Binding{
				Owner: fmt.Sprintf("e%d", i), Static: randClass(), Handler: noop,
			}); err != nil {
				return false
			}
		}
		caller := randClass()
		b, err := sys.Dispatcher().Select("/s", caller)
		if err != nil {
			return false
		}
		if b.Static.Valid() && !caller.Dominates(b.Static) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
