package ifc

import (
	"fmt"
	"math/rand"
	"testing"

	"secext/internal/acl"
	"secext/internal/core"
	"secext/internal/lattice"
	"secext/internal/names"
	"secext/internal/principal"
	"secext/internal/subject"
)

// flowWorld couples a live system with the ghost tracker.
type flowWorld struct {
	sys     *core.System
	tracker *Tracker
	ctxs    map[string]*subject.Context
	objects []string
}

// newFlowWorld builds a random protection state. ACLs are maximally
// permissive — everyone gets every mode — so the *only* thing standing
// between information and a laundering path is the mandatory layer,
// which is exactly the paper's §2.2 claim under test.
func newFlowWorld(t *testing.T, r *rand.Rand) *flowWorld {
	t.Helper()
	levels := []string{"l0", "l1", "l2"}
	cats := []string{"a", "b"}
	sys, err := core.NewSystem(core.Options{
		Levels: levels, Categories: cats, DisableAudit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	bot, _ := sys.Lattice().Bottom()
	open := acl.New(acl.AllowEveryone(acl.AllModes))
	if _, err := sys.CreateNode(core.NodeSpec{
		Path: "/fs", Kind: names.KindDirectory, ACL: open, Class: bot, Multilevel: true,
	}); err != nil {
		t.Fatal(err)
	}
	w := &flowWorld{
		sys: sys, tracker: NewTracker(),
		ctxs: make(map[string]*subject.Context),
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
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("s%d", i)
		class := randClass()
		if _, err := sys.Registry().Apply(principal.AddPrincipal(name, class)); err != nil {
			t.Fatal(err)
		}
		ctx, err := sys.NewContext(name)
		if err != nil {
			t.Fatal(err)
		}
		w.ctxs[name] = ctx
		w.tracker.AddSubject(name, class)
	}
	for i := 0; i < 5; i++ {
		path := fmt.Sprintf("/fs/o%d", i)
		class := randClass()
		// Setup uses the unchecked path so object classes are
		// arbitrary; the run itself is fully mediated.
		if _, err := sys.CreateNode(core.NodeSpec{
			Path: path, Kind: names.KindFile, ACL: open, Class: class,
		}); err != nil {
			t.Fatal(err)
		}
		w.objects = append(w.objects, path)
		w.tracker.AddObject(path, class)
	}
	return w
}

// step performs one random mediated operation, mirroring every allowed
// effect into the tracker.
func (w *flowWorld) step(t *testing.T, r *rand.Rand) {
	t.Helper()
	subjects := []string{"s0", "s1", "s2", "s3"}
	sub := subjects[r.Intn(len(subjects))]
	obj := w.objects[r.Intn(len(w.objects))]
	ctx := w.ctxs[sub]
	switch r.Intn(4) {
	case 0: // read
		if _, err := w.sys.CheckData(ctx, obj, acl.Read); err == nil {
			w.tracker.ObserveRead(sub, obj)
		}
	case 1: // append
		if _, err := w.sys.CheckData(ctx, obj, acl.WriteAppend); err == nil {
			w.tracker.ObserveWrite(sub, obj)
		}
	case 2: // overwrite (read+write per the fsys rule)
		if _, err := w.sys.CheckData(ctx, obj, acl.Read|acl.Write); err == nil {
			w.tracker.ObserveOverwrite(sub, obj)
		}
	case 3: // relabel up then read by a third party
		target := w.objects[r.Intn(len(w.objects))]
		node, err := w.sys.Names().ResolveUnchecked(target)
		if err != nil {
			t.Fatal(err)
		}
		newClass := ctx.Class().Join(node.Class())
		// Only attempt the relabel the monitor would allow
		// (administrate + relabel rules); use the checked path.
		if _, err := w.sys.Names().Apply(ctx, ctx.Class(), names.SetClass(target, newClass)); err == nil {
			// Relabeling changes future checks, not past knowledge;
			// nothing to mirror: sources keep their birth class.
			_ = newClass
		}
	}
}

// TestFlowNoLaundering drives thousands of random mediated operations
// with wide-open ACLs and asserts after every step that no subject ever
// learned information born above its class. This is the §2.2 claim:
// discretionary permissiveness cannot launder mandatory protection.
func TestFlowNoLaundering(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := newFlowWorld(t, r)
		for i := 0; i < 500; i++ {
			w.step(t, r)
			if v := w.tracker.Violations(); len(v) != 0 {
				t.Fatalf("seed %d step %d: information laundered:\n%v", seed, i, v)
			}
		}
	}
}

// TestFlowUpgradeChannelIsOneWay checks the write-append channel in the
// ghost model directly: a low subject's report flows up into a high
// object and is readable there, but nothing flows back down.
func TestFlowUpgradeChannelIsOneWay(t *testing.T) {
	lat, err := lattice.NewWithUniverse([]string{"lo", "hi"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker()
	tr.AddSubject("low", lat.MustClass("lo"))
	tr.AddSubject("high", lat.MustClass("hi"))
	lowSrc := tr.AddObject("/lowfile", lat.MustClass("lo"))
	tr.AddObject("/journal", lat.MustClass("hi"))

	// low reads its own file, appends to the journal; high reads the
	// journal: high now knows the low source — legal (read down).
	tr.ObserveRead("low", "/lowfile")
	tr.ObserveWrite("low", "/journal")
	tr.ObserveRead("high", "/journal")
	if v := tr.Violations(); len(v) != 0 {
		t.Fatalf("legal upgrade flagged: %v", v)
	}
	found := false
	for _, id := range tr.KnowledgeOf("high") {
		if id == lowSrc.ID {
			found = true
		}
	}
	if !found {
		t.Error("high must have learned the low source via the journal")
	}

	// Now simulate the monitor *wrongly* allowing low to read the
	// journal: the tracker must flag it. (This validates the oracle
	// itself: it can detect violations.)
	hiOnly := tr.AddObject("/secret", lat.MustClass("hi"))
	tr.ObserveRead("high", "/secret")
	tr.ObserveWrite("high", "/journal") // high writes at its level: fine
	tr.ObserveRead("low", "/journal")   // the monitor would deny this
	v := tr.Violations()
	if len(v) == 0 {
		t.Fatal("oracle failed to flag a read-up")
	}
	_ = hiOnly
}

// TestTrackerAccessors covers the inspection helpers.
func TestTrackerAccessors(t *testing.T) {
	lat, err := lattice.NewWithUniverse([]string{"l"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker()
	tr.AddSubject("s", lat.MustClass("l"))
	src := tr.AddObject("/o", lat.MustClass("l"))
	if got := tr.SourcesOf("/o"); len(got) != 1 || got[0] != src.ID {
		t.Errorf("SourcesOf = %v", got)
	}
	tr.ObserveRead("s", "/o")
	if got := tr.KnowledgeOf("s"); len(got) != 1 || got[0] != src.ID {
		t.Errorf("KnowledgeOf = %v", got)
	}
	tr.ObserveOverwrite("s", "/o")
	if got := tr.SourcesOf("/o"); len(got) != 1 {
		t.Errorf("overwrite must replace contents: %v", got)
	}
	// Message relay.
	tr.AddSubject("r", lat.MustClass("l"))
	tr.AddObject("/ep", lat.MustClass("l"))
	tr.ObserveMessage("s", "/ep", "r")
	// r learns both the endpoint's birth source and what s knew.
	if got := tr.KnowledgeOf("r"); len(got) != 2 {
		t.Errorf("receiver knowledge = %v", got)
	}
}
