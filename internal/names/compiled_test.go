package names

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/monitor"
	"secext/internal/monitor/dacguard"
	"secext/internal/principal"
	"secext/internal/subject"
)

// assertCompiledStructure asserts the structural half of the compiled
// contract on one pinned epoch: the index is exactly the tree (no
// missing, no stale entries) and matches a full rebuild entry by entry,
// and each named subject's compiled summaries render the same effective
// mode sets as ACL entry iteration.
func assertCompiledStructure(t testing.TB, ep *Epoch, subs []string) {
	t.Helper()
	if !ep.Compiled() {
		t.Fatalf("epoch v%d not compiled", ep.Version())
	}
	// Index ≡ tree, both directions.
	tree := make(map[string]*Node)
	ep.Walk(func(p string, n *Node) { tree[p] = n })
	for p, n := range tree {
		if x := ep.compiled.index.Ref(p); x == nil || x.node != n {
			t.Errorf("v%d: index missing or wrong at %s", ep.Version(), p)
		}
	}
	if ep.compiled.index.Len() != len(tree) {
		ep.compiled.index.Range(func(e *indexed) bool {
			if _, ok := tree[e.node.path]; !ok {
				t.Errorf("v%d: stale index entry %s", ep.Version(), e.node.path)
			}
			return true
		})
	}
	// Entry by entry, the view equals a from-scratch compile.
	assertMatchesFullRebuild(t, ep)
	// Summary verdict ≡ ACL entry iteration, mode set for mode set.
	for p, n := range tree {
		for _, name := range subs {
			if granted, ok := ep.CompiledGrants(p, name); ok {
				if oracle := n.acl.GrantedIn(subj(name), ep.members()); granted != oracle {
					t.Errorf("v%d: %s on %s: summary grants %v, entry iteration %v",
						ep.Version(), name, p, granted, oracle)
				}
			}
		}
	}
}

// assertCompiledEquiv asserts the compiled-vs-walk contract on one
// pinned epoch: the structure above, then, on every bound path for
// every subject, class and queryModes set, checked resolution through
// the compiled visibility chain, every verdict the fast check decides,
// and the composed check each agree with the walk; for registered
// subjects under the default stack the fast check decides every allow
// the walk grants and every denial it renders.
func assertCompiledEquiv(t *testing.T, ep *Epoch, subs []fakeSubject, classes []lattice.Class) {
	t.Helper()
	var names []string
	registered := make(map[string]bool)
	for _, sub := range subs {
		names = append(names, sub.name)
		_, registered[sub.name] = ep.Registry().PrincipalID(sub.name)
	}
	assertCompiledStructure(t, ep, names)
	shadow := walkOnly(ep)
	ep.Walk(func(p string, _ *Node) {
		for _, sub := range subs {
			for _, class := range classes {
				rn, rerr := resolveIn(ep, sub, class, p, true)
				wn, werr := resolveIn(shadow, sub, class, p, true)
				if rn != wn || !sameDecision(rerr, werr) {
					t.Errorf("v%d: resolve %s as %s: fast (%v,%v) walk (%v,%v)",
						ep.Version(), p, sub.name, rn, rerr, wn, werr)
				}
				for _, modes := range queryModes {
					wn, werr := checkAccessIn(shadow, sub, class, p, modes, nil)
					fn, ferr, decided := ep.fastCheck(sub, class, p, modes)
					if decided && (fn != wn || !sameDecision(ferr, werr)) {
						t.Errorf("v%d: FAST PATH DIVERGES FROM WALK: %s %s %v: compiled (%v, %v), walk (%v, %v)",
							ep.Version(), sub.name, p, modes, fn, ferr, wn, werr)
					}
					if !decided && registered[sub.name] && ep.compiled.fast {
						// On the default stack every walk denial of a bound
						// path is a missing grant, a MAC flow failure or a
						// hidden ancestor, all of which the compiled path
						// decides.
						var de *DeniedError
						if werr == nil {
							t.Errorf("v%d: fast path undecided on a walk allow: %s %s %v",
								ep.Version(), sub.name, p, modes)
						} else if errors.As(werr, &de) {
							t.Errorf("v%d: fast path undecided on a walk denial: %s %s %v: %v",
								ep.Version(), sub.name, p, modes, werr)
						}
					}
					if cn, cerr := checkAccessIn(ep, sub, class, p, modes, nil); cn != wn || !sameDecision(cerr, werr) {
						t.Errorf("v%d: checkAccessIn diverged at %s as %s %v: (%v,%v) vs (%v,%v)",
							ep.Version(), p, sub.name, modes, cn, cerr, wn, werr)
					}
				}
			}
		}
	})
}

// compiledFixture is a server with registry, groups, and a small tree.
type compiledFixture struct {
	*fixture
	reg  *principal.Registry
	subs []fakeSubject
}

func newCompiledFixture(t *testing.T) *compiledFixture {
	t.Helper()
	f := newFixture(t)
	f.mkTree(t)
	reg := principal.NewRegistry(f.lat)
	for _, p := range []string{"root", "alice", "bob", "carol"} {
		if _, err := reg.Apply(principal.AddPrincipal(p, f.bot)); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []string{"ops", "eng"} {
		if _, err := reg.Apply(principal.AddGroup(g)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Apply(principal.AddMember("ops", "alice")); err != nil {
		t.Fatal(err)
	}
	f.srv.AttachRegistry(reg)
	return &compiledFixture{
		fixture: f, reg: reg,
		subs: []fakeSubject{subj("root"), subj("alice"), subj("bob"), subj("carol"), subj("mallory")},
	}
}

func (cf *compiledFixture) classes() []lattice.Class {
	return []lattice.Class{cf.bot, cf.org, cf.top}
}

// TestCompiledEpochLifecycle: no compiled view without a registry, one
// appears at attachment, SetCompiledEpochs strips and rebuilds it, and
// decisions are unaffected by the toggle.
func TestCompiledEpochLifecycle(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	if f.srv.Current().Compiled() {
		t.Fatal("compiled view without a registry")
	}
	reg := principal.NewRegistry(f.lat)
	if _, err := reg.Apply(principal.AddPrincipal("root", f.bot)); err != nil {
		t.Fatal(err)
	}
	f.srv.AttachRegistry(reg)
	if !f.srv.Current().Compiled() {
		t.Fatal("no compiled view after registry attach")
	}
	full0 := f.srv.CompiledStats().Full

	f.srv.SetCompiledEpochs(false)
	if f.srv.Current().Compiled() {
		t.Fatal("compiled view survived SetCompiledEpochs(false)")
	}
	if _, _, err := f.srv.CheckAccess(f.root, f.bot, "/svc/fs/read", acl.Read, nil); err != nil {
		t.Fatalf("walk check with compilation off: %v", err)
	}
	f.srv.SetCompiledEpochs(true)
	if !f.srv.Current().Compiled() {
		t.Fatal("no compiled view after SetCompiledEpochs(true)")
	}
	if got := f.srv.CompiledStats().Full; got != full0+1 {
		t.Fatalf("full rebuilds = %d, want %d (re-enable forces one)", got, full0+1)
	}
	if _, _, err := f.srv.CheckAccess(f.root, f.bot, "/svc/fs/read", acl.Read, nil); err != nil {
		t.Fatalf("fast check with compilation on: %v", err)
	}
}

// TestCompiledIndexTracksMutations drives every structural mutation
// class — bind, ACL install, membership change, unbind, rename with
// subtree move — and asserts the full equivalence contract after each.
func TestCompiledIndexTracksMutations(t *testing.T) {
	cf := newCompiledFixture(t)
	srv, classes := cf.srv, cf.classes()
	check := func(step string) {
		t.Helper()
		ep := srv.Current()
		assertCompiledEquiv(t, ep, cf.subs, classes)
		if t.Failed() {
			t.Fatalf("after %s", step)
		}
	}
	check("attach")

	deptACL := acl.New(
		acl.Allow("root", acl.AllModes),
		acl.AllowGroup("ops", acl.Read|acl.List),
		acl.AllowEveryone(acl.List),
	)
	if _, err := srv.BindUnchecked("/svc", BindSpec{Name: "dept", Kind: KindDirectory, ACL: deptACL, Class: cf.bot}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.BindUnchecked("/svc/dept", BindSpec{
			Name: fmt.Sprintf("doc%d", i), Kind: KindFile,
			ACL:   acl.New(acl.Allow("alice", acl.Read|acl.Write), acl.AllowGroup("eng", acl.Read), acl.Deny("bob", acl.Read)),
			Class: cf.bot,
		}); err != nil {
			t.Fatal(err)
		}
	}
	check("binds")

	// ACL install on an interior node changes the children's visibility
	// chain: drop Everyone's List.
	if err := srv.SetACLUnchecked("/svc/dept", acl.New(
		acl.Allow("root", acl.AllModes), acl.Allow("alice", acl.List|acl.Read))); err != nil {
		t.Fatal(err)
	}
	check("interior ACL tightened")

	// Membership churn flips group-sensitive summaries.
	if _, err := cf.reg.Apply(principal.AddMember("eng", "bob")); err != nil {
		t.Fatal(err)
	}
	check("bob joins eng")
	if _, err := cf.reg.Apply(principal.RemoveMember("ops", "alice")); err != nil {
		t.Fatal(err)
	}
	check("alice leaves ops")

	// A new principal grows the ID space; bitsets must follow.
	if _, err := cf.reg.Apply(principal.AddPrincipal("dave", cf.bot)); err != nil {
		t.Fatal(err)
	}
	if _, err := cf.reg.Apply(principal.AddMember("eng", "dave")); err != nil {
		t.Fatal(err)
	}
	cf.subs = append(cf.subs, subj("dave"))
	check("dave arrives")

	// Rename: move the whole dept subtree under a new parent — the old
	// paths must vanish from the index and the new ones appear.
	if _, err := srv.BindUnchecked("/", BindSpec{Name: "archive", Kind: KindDirectory, ACL: acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List)), Class: cf.bot}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Apply(cf.root, cf.bot, Rename("/svc/dept", "/archive", "dept-old")); err != nil {
		t.Fatal(err)
	}
	check("subtree move")
	if srv.Current().compiled.index.Ref("/svc/dept/doc0") != nil {
		t.Fatal("stale index entry for pre-rename path")
	}
	if srv.Current().compiled.index.Ref("/archive/dept-old/doc0") == nil {
		t.Fatal("index missing relocated node")
	}

	if _, err := srv.Apply(nil, lattice.Class{}, Unbind("/archive/dept-old/doc2")); err != nil {
		t.Fatal(err)
	}
	check("unbind")

	// A stack-only publication reuses the compiled view wholesale and
	// must not disturb equivalence.
	srv.PublishStack(srv.Current().Stack())
	check("stack republish")

	st := srv.CompiledStats()
	if st.Incremental == 0 {
		t.Fatalf("no incremental builds recorded: %+v", st)
	}
	if st.Entries == 0 || st.RetainedBytes <= 0 || st.RetainedBytesCloned < st.RetainedBytes {
		t.Fatalf("implausible footprint: %+v", st)
	}
}

// TestCompiledIncrementalMatchesFullRebuild pins the incrementally
// maintained compiled view after a mutation storm, forces a from-
// scratch rebuild of the same epoch state, and deep-compares the two.
func TestCompiledIncrementalMatchesFullRebuild(t *testing.T) {
	cf := newCompiledFixture(t)
	srv := cf.srv
	for i := 0; i < 8; i++ {
		if _, err := srv.BindUnchecked("/svc", BindSpec{
			Name: fmt.Sprintf("s%d", i), Kind: KindFile,
			ACL:   acl.New(acl.Allow("alice", acl.Read), acl.AllowGroup("ops", acl.List)),
			Class: cf.bot,
		}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			cf.reg.Apply(principal.AddMember("eng", "bob"))
			cf.reg.Apply(principal.RemoveMember("eng", "bob"))
		}
	}
	inc := srv.Current()
	srv.SetCompiledEpochs(false)
	srv.SetCompiledEpochs(true)
	full := srv.Current()
	if full.Root() != inc.Root() {
		t.Fatal("toggle moved the tree")
	}
	assertSameCompiled(t, inc, inc.compiled, full.compiled)
	assertMatchesFullRebuild(t, inc)
}

// fullRebuild compiles ep from scratch, with no parent view to share.
func fullRebuild(ep *Epoch) *compiled {
	return newCompileBuilder(ep, nil, idSpace(ep.reg)).build(nil, nil)
}

// assertMatchesFullRebuild checks ep's (incrementally built) compiled
// view against a from-scratch compile of the same epoch.
func assertMatchesFullRebuild(t testing.TB, ep *Epoch) {
	t.Helper()
	assertSameCompiled(t, ep, ep.compiled, fullRebuild(ep))
}

// assertSameCompiled asserts that ic and fc, two compiled views of ep,
// each index exactly ep's tree, agree entry by entry (node, List set,
// visibility chain, every principal's granted modes), and keep exact
// slot books: one live slot per distinct ACL with refs equal to the
// entries judged by it, so entries sharing an ACL share a summary.
func assertSameCompiled(t testing.TB, ep *Epoch, ic, fc *compiled) {
	t.Helper()
	tree := make(map[string]*Node)
	ep.Walk(func(p string, n *Node) { tree[p] = n })
	for _, c := range []*compiled{ic, fc} {
		if c.index.Len() != len(tree) {
			t.Fatalf("v%d: index holds %d entries, tree %d", ep.Version(), c.index.Len(), len(tree))
		}
		refs := make(map[int32]int32)
		c.index.Range(func(e *indexed) bool {
			p := e.node.path
			if tree[p] != e.node {
				t.Errorf("v%d: index entry %s is not the tree's node", ep.Version(), p)
			}
			if c.tab.slots[e.slot].acl != e.node.acl {
				t.Errorf("v%d: %s judged by another ACL's slot", ep.Version(), p)
			}
			refs[e.slot]++
			return true
		})
		live := 0
		for i, sl := range c.tab.slots {
			if sl.acl == nil {
				if c.sums[i] != nil || c.tab.refs[i] != 0 {
					t.Errorf("v%d: free slot %d still holds state", ep.Version(), i)
				}
				continue
			}
			live++
			if c.tab.refs[i] != refs[int32(i)] || c.tab.refs[i] == 0 || c.tab.ids[sl.acl] != int32(i) {
				t.Errorf("v%d: slot %d books refs=%d, index uses it %d times", ep.Version(), i, c.tab.refs[i], refs[int32(i)])
			}
		}
		if live != len(c.tab.ids) || len(c.sums) != len(c.tab.slots) || len(c.tab.refs) != len(c.tab.slots) {
			t.Errorf("v%d: %d live slots, %d ids, %d sums, %d slots", ep.Version(), live, len(c.tab.ids), len(c.sums), len(c.tab.slots))
		}
	}
	if len(ic.tab.ids) != len(fc.tab.ids) || ic.sensitiveEntries() != fc.sensitiveEntries() ||
		ic.n != fc.n || ic.fast != fc.fast {
		t.Fatalf("v%d: metadata differs: inc{acls:%d sens:%d n:%d fast:%v} full{acls:%d sens:%d n:%d fast:%v}",
			ep.Version(), len(ic.tab.ids), ic.sensitiveEntries(), ic.n, ic.fast,
			len(fc.tab.ids), fc.sensitiveEntries(), fc.n, fc.fast)
	}
	for p := range tree {
		ie, fe := ic.index.Ref(p), fc.index.Ref(p)
		if ie == nil || fe == nil || fe.node != ie.node {
			t.Fatalf("v%d: full rebuild disagrees about %s", ep.Version(), p)
		}
		sameCls := ie.visClass.Equal(fe.visClass) || (!ie.visClass.Valid() && !fe.visClass.Valid())
		if ie.hasVis != fe.hasVis || !ie.visAllow.Equal(fe.visAllow) || !sameCls || !ie.effList.Equal(fe.effList) {
			t.Errorf("v%d: List set or visibility chain differs at %s", ep.Version(), p)
		}
		isum, fsum := ic.sumOf(ie.centry), fc.sumOf(fe.centry)
		for pid := 0; pid < ic.n; pid++ {
			if isum.Granted(pid) != fsum.Granted(pid) {
				t.Errorf("v%d: summary differs at %s for pid %d: inc %v full %v",
					ep.Version(), p, pid, isum.Granted(pid), fsum.Granted(pid))
			}
		}
	}
}

// TestCompiledNonDefaultStackFallsBack: with a custom guard stack the
// index still resolves, but the fast check declines to decide — the
// stack's own semantics must run on the walk.
func TestCompiledNonDefaultStackFallsBack(t *testing.T) {
	cf := newCompiledFixture(t)
	srv := cf.srv
	dacOnly := monitor.NewPipeline(dacguard.New()).Current()
	srv.PublishStack(dacOnly)
	ep := srv.Current()
	if !ep.Compiled() {
		t.Fatal("stack publish dropped the compiled view")
	}
	if ep.compiled.fast {
		t.Fatal("non-default stack marked fast")
	}
	if ep.compiled.index.Ref("/svc/fs/read") == nil {
		t.Fatal("index lost under custom stack")
	}
	if _, decided := ep.CompiledAllows(subj("root"), cf.bot, "/svc/fs/read", acl.Read); decided {
		t.Fatal("fast check decided under a custom stack")
	}
	if _, _, err := srv.CheckAccess(subj("root"), cf.bot, "/svc/fs/read", acl.Read, nil); err != nil {
		t.Fatalf("walk check under custom stack: %v", err)
	}
}

// TestCompiledRandomizedOracle fuzzes a deterministic op sequence over
// every mutation class and asserts the equivalence contract on every
// published epoch along the way, plus pinned-epoch immutability at the
// end. This is the op-sequence oracle for index-resolve ≡ walk-resolve
// and summary-verdict ≡ entry-iteration. The registry ops cover every
// path a scoped registry transition takes: member toggles, subgroup
// edges (a full re-freeze), enrolling a principal registered earlier,
// and an ACL naming a principal before it registers. Relabels put nodes
// above and below the subjects' classes, so every denial the compiled
// path decides (missing grant, MAC flow, hidden ancestor by ACL or by
// class) arises.
func TestCompiledRandomizedOracle(t *testing.T) {
	cf := newCompiledFixture(t)
	srv, classes := cf.srv, cf.classes()
	rng := rand.New(rand.NewSource(7))
	names := []string{"alice", "bob", "carol", "root"}
	groups := []string{"ops", "eng"}
	var pinned []*Epoch
	dirs := []string{"/svc", "/svc/fs"}
	serial := 0
	var added []string
	for i := 0; i < 120; i++ {
		switch rng.Intn(12) {
		case 0, 1:
			parent := dirs[rng.Intn(len(dirs))]
			serial++
			name := fmt.Sprintf("r%d", serial)
			a := acl.New(
				acl.Allow(names[rng.Intn(len(names))], acl.Read|acl.Write),
				acl.AllowGroup(groups[rng.Intn(len(groups))], acl.Read|acl.List),
			)
			if rng.Intn(2) == 0 {
				a.Add(acl.Deny(names[rng.Intn(len(names))], acl.Read))
			}
			kind, path := KindFile, parent+"/"+name
			if rng.Intn(3) == 0 {
				kind = KindDirectory
			}
			if _, err := srv.BindUnchecked(parent, BindSpec{Name: name, Kind: kind, ACL: a, Class: cf.bot}); err == nil && kind == KindDirectory {
				dirs = append(dirs, path)
			}
		case 2:
			srv.Apply(nil, lattice.Class{}, Unbind(fmt.Sprintf("/svc/r%d", rng.Intn(serial+1))))
		case 3:
			p := dirs[rng.Intn(len(dirs))]
			srv.SetACLUnchecked(p, acl.New(
				acl.Allow("root", acl.AllModes),
				acl.AllowGroup(groups[rng.Intn(len(groups))], acl.List),
				acl.AllowEveryone(acl.List),
			))
		case 4:
			cf.reg.Apply(principal.AddMember(groups[rng.Intn(len(groups))], names[rng.Intn(len(names))]))
		case 5:
			cf.reg.Apply(principal.RemoveMember(groups[rng.Intn(len(groups))], names[rng.Intn(len(names))]))
		case 6:
			// Rename a random renameable node under /svc into /svc/fs.
			old := fmt.Sprintf("/svc/r%d", rng.Intn(serial+1))
			srv.Apply(cf.root, cf.bot, Rename(old, "/svc/fs", fmt.Sprintf("mv%d", i)))
		case 7:
			name := fmt.Sprintf("u%d", len(added))
			if _, err := cf.reg.Apply(principal.AddPrincipal(name, cf.bot)); err == nil {
				added = append(added, name)
				cf.subs = append(cf.subs, subj(name))
			}
		case 8:
			// Subgroup edge eng ⊆ ops, toggled: a full re-freeze.
			if members, _ := cf.reg.Members("ops"); slices.Contains(members, "@eng") {
				cf.reg.Apply(principal.RemoveMember("ops", "eng"))
			} else {
				cf.reg.Apply(principal.AddMember("ops", "eng"))
			}
		case 9:
			// Enrol a principal registered earlier in the run.
			if len(added) > 0 {
				cf.reg.Apply(principal.AddMember(groups[rng.Intn(len(groups))], added[rng.Intn(len(added))]))
			}
		case 10:
			// An interior ACL naming the principal case 7 registers next.
			srv.SetACLUnchecked(dirs[rng.Intn(len(dirs))], acl.New(
				acl.Allow("root", acl.AllModes),
				acl.Allow(fmt.Sprintf("u%d", len(added)), acl.List|acl.Read),
				acl.AllowGroup(groups[rng.Intn(len(groups))], acl.List),
			))
		case 11:
			// Relabel a directory or a node under /svc: ancestors above a
			// subject's class hide what lies below them, and targets on
			// either side of it deny by MAC flow.
			p := dirs[rng.Intn(len(dirs))]
			if rng.Intn(2) == 0 {
				p = fmt.Sprintf("/svc/r%d", rng.Intn(serial+1))
			}
			srv.Apply(nil, lattice.Class{}, SetClass(p, classes[rng.Intn(len(classes))]))
		}
		assertMatchesFullRebuild(t, srv.Current())
		if i%10 == 0 || i == 119 {
			ep := srv.Current()
			assertCompiledEquiv(t, ep, cf.subs, classes)
			if t.Failed() {
				t.Fatalf("after op %d", i)
			}
			pinned = append(pinned, ep)
		}
	}
	// Pinned epochs are immutable: the contract still holds on each.
	for _, ep := range pinned {
		assertCompiledEquiv(t, ep, cf.subs, classes)
	}
	st := srv.CompiledStats()
	if st.Incremental == 0 || st.Full == 0 {
		t.Fatalf("expected both full and incremental builds: %+v", st)
	}
}

// TestRegistryTransitionRecompilesWhatMoved: a registry transition
// recompiles only the summaries whose inputs moved — the ACLs naming a
// group whose member row changed, and, when the registry allocates new
// IDs, the ACLs naming a principal it did not know — and shares the
// index with the parent. Every step matches a from-scratch compile.
func TestRegistryTransitionRecompilesWhatMoved(t *testing.T) {
	cf := newCompiledFixture(t)
	srv := cf.srv
	bind := func(name string, a *acl.ACL) {
		t.Helper()
		if _, err := srv.BindUnchecked("/svc", BindSpec{Name: name, Kind: KindFile, ACL: a, Class: cf.bot}); err != nil {
			t.Fatal(err)
		}
	}
	bind("ops-r", acl.New(acl.AllowGroup("ops", acl.Read)))
	bind("ops-w", acl.New(acl.AllowGroup("ops", acl.Write)))
	bind("ops-rw", acl.New(acl.AllowGroup("ops", acl.Read|acl.Write), acl.Deny("carol", acl.Write)))
	bind("eng-r", acl.New(acl.AllowGroup("eng", acl.Read)))
	bind("both", acl.New(acl.AllowGroup("eng", acl.Write), acl.DenyGroup("ops", acl.Write)))
	bind("alice", acl.New(acl.Allow("alice", acl.Read)))
	bind("dave", acl.New(acl.Allow("dave", acl.Read|acl.Write)))
	assertMatchesFullRebuild(t, srv.Current())

	// step applies edits and reports how many summaries the publication
	// compiled, its journal label, and whether it shared the index.
	step := func(what string, edits ...principal.Edit) (compiles uint64, label string, shared bool) {
		t.Helper()
		prev := srv.Current()
		before := srv.CompiledStats().Summaries
		if _, err := cf.reg.Apply(edits...); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		ep := srv.Current()
		assertMatchesFullRebuild(t, ep)
		if t.Failed() {
			t.Fatalf("after %s", what)
		}
		fresh, _ := ep.compiled.index.Sharing(&prev.compiled.index)
		return srv.CompiledStats().Summaries - before, srv.Journal(1)[0].Compile, fresh == 0
	}

	if n, label, shared := step("bob joins eng", principal.AddMember("eng", "bob")); n != 2 || label != "incremental" || !shared {
		t.Errorf("eng toggle: %d compiles (want the 2 ACLs naming eng), label %q, index shared %v", n, label, shared)
	}
	if n, _, shared := step("alice leaves ops", principal.RemoveMember("ops", "alice")); n != 4 || !shared {
		t.Errorf("ops toggle: %d compiles (want the 4 ACLs naming ops), index shared %v", n, shared)
	}
	if n, label, shared := step("dave registers", principal.AddPrincipal("dave", cf.bot)); n != 1 || label != "incremental" || !shared {
		t.Errorf("new principal named by one ACL: %d compiles (want 1), label %q, index shared %v", n, label, shared)
	}
	if n, label, shared := step("erin registers", principal.AddPrincipal("erin", cf.bot)); n != 0 || label != "reused" || !shared {
		t.Errorf("new principal no ACL names: %d compiles, label %q, index shared %v", n, label, shared)
	}
	if n, _, _ := step("dave joins ops", principal.AddMember("ops", "dave")); n != 4 {
		t.Errorf("ops toggle: %d compiles, want 4", n)
	}
	// A new group moves no member row: nothing recompiles.
	if n, label, shared := step("sec registers", principal.AddGroup("sec")); n != 0 || label != "reused" || !shared {
		t.Errorf("new group: %d compiles, label %q, index shared %v", n, label, shared)
	}
	// A subgroup edge moves only the closure of the groups above it:
	// eng's members join ops, eng's own row stays.
	if n, _, _ := step("eng nests in ops", principal.AddMember("ops", "eng")); n != 4 {
		t.Errorf("subgroup edge: %d compiles, want the 4 ACLs naming ops", n)
	}
	step("eng leaves ops", principal.RemoveMember("ops", "eng"))

	// Crossing an ID chunk widens every bitset: one walk over the tree.
	var edits []principal.Edit
	for i := cf.reg.Freeze().NumPrincipalIDs(); i <= idChunk; i++ {
		edits = append(edits, principal.AddPrincipal(fmt.Sprintf("bulk%d", i), cf.bot))
	}
	if _, _, shared := step("chunk crossed", edits...); shared {
		t.Error("crossing an ID chunk kept the parent's index")
	}
	if got := srv.Current().compiled.n; got != 2*idChunk {
		t.Errorf("ID space %d after %d principals, want %d", got, srv.Current().Registry().NumPrincipalIDs(), 2*idChunk)
	}
	cf.subs = append(cf.subs, subj("dave"), subj("erin"), subj("bulk1024"))
	assertCompiledEquiv(t, srv.Current(), cf.subs, cf.classes())
}

// TestSubjectIDConfirmsPrincipal: a subject carrying its principal
// (the principal itself or a context acting for it) gets its ID from
// the principal, confirmed against the epoch's registry; a principal
// from another registry (a replica's, checked on the primary) fails
// the confirmation, falls back to its name, and gets the walk's
// verdict and DeniedError text.
func TestSubjectIDConfirmsPrincipal(t *testing.T) {
	cf := newCompiledFixture(t)
	doc := acl.New(acl.Allow("root", acl.AllModes), acl.Allow("alice", acl.Read))
	if _, _, err := cf.srv.BindSubtreeUnchecked("/", []SubtreeSpec{{Path: "doc", Kind: KindFile, ACL: doc, Class: cf.bot}}); err != nil {
		t.Fatal(err)
	}
	ep := cf.srv.Current()
	// The replica's registry has the same names in another order, so
	// alice's ID there is bob's here.
	replica := principal.NewRegistry(cf.lat)
	for _, p := range []string{"bob", "carol", "alice", "root"} {
		if _, err := replica.Apply(principal.AddPrincipal(p, cf.bot)); err != nil {
			t.Fatal(err)
		}
	}
	from := func(reg *principal.Registry, name string) *principal.Principal {
		p, err := reg.Freeze().Principal(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, name := range []string{"alice", "bob"} {
		want, _ := ep.reg.PrincipalID(name)
		own, foreign := from(cf.reg, name), from(replica, name)
		if _, ok := ep.reg.IDOf(foreign); ok {
			t.Fatalf("%s: the replica's principal was confirmed by the primary's registry", name)
		}
		subs := []acl.Subject{own, subject.MustNew(own), foreign, subject.MustNew(foreign), subj(name)}
		for i, sub := range subs {
			if id, ok := ep.subjectID(sub); !ok || id != want {
				t.Errorf("%s subject %d: ID %d %v, want %d", name, i, id, ok, want)
			}
			_, got := cf.srv.CheckAccessIn(ep, sub, cf.bot, "/doc", acl.Read)
			_, walk := cf.srv.CheckAccessIn(walkOnly(ep), sub, cf.bot, "/doc", acl.Read)
			if !sameDecision(got, walk) {
				t.Errorf("%s subject %d: %v, walk %v", name, i, got, walk)
			}
			var de *DeniedError
			if denied := errors.As(got, &de); denied != (name == "bob") {
				t.Errorf("%s subject %d: err %v", name, i, got)
			}
			if _, decided := ep.CompiledAllows(sub, cf.bot, "/doc", acl.Read); decided != (name == "alice") {
				t.Errorf("%s subject %d: compiled decided %v", name, i, decided)
			}
		}
	}
	// A principal registered after the epoch was published is beyond
	// its ID range and its name is unknown there: the walk denies.
	if _, err := cf.reg.Apply(principal.AddPrincipal("dave", cf.bot)); err != nil {
		t.Fatal(err)
	}
	dave := from(cf.reg, "dave")
	if _, ok := ep.subjectID(subject.MustNew(dave)); ok {
		t.Fatal("a principal newer than the epoch got an ID in it")
	}
	if _, err := cf.srv.CheckAccessIn(ep, dave, cf.bot, "/doc", acl.Read); !errors.Is(err, ErrDenied) {
		t.Fatalf("dave on the older epoch: %v", err)
	}
}

// TestRetainedBytesByHand: a one-node tree's compiled view retains the
// index trie's one value slot, the root's entry, the root ACL's
// summary, a one-slot table and the dominance table; nothing in it is
// shared, so both counts agree.
func TestRetainedBytesByHand(t *testing.T) {
	f := newFixture(t)
	reg := principal.NewRegistry(f.lat)
	if _, err := reg.Apply(principal.AddPrincipal("root", f.bot)); err != nil {
		t.Fatal(err)
	}
	f.srv.AttachRegistry(reg)
	c := f.srv.Current().compiled
	if c.index.Len() != 1 || len(c.sums) != 1 {
		t.Fatalf("%d entries, %d slots", c.index.Len(), len(c.sums))
	}
	const ptr = 8
	want := int64(unsafe.Sizeof(indexed{})) + // the trie root's value array: one slot
		int64(unsafe.Sizeof(centry{})) +
		int64(c.sums[0].RetainedBytes()) +
		1*ptr + int64(unsafe.Sizeof(aclSlot{})) + 16 + // sums, slots, one ACL->slot map entry
		2*4 + // refs: one int32, its array rounded up to the 8-byte size class
		int64(c.dom.RetainedBytes())
	if dedup, cloned := c.retainedBytes(); dedup != want || cloned != want {
		t.Fatalf("retained %d dedup, %d cloned; want %d", dedup, cloned, want)
	}
}
