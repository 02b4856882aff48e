package names_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"secext/internal/acl"
	"secext/internal/baseline"
	"secext/internal/baseline/secextmodel"
	"secext/internal/core"
	"secext/internal/lattice"
	"secext/internal/names"
	"secext/internal/principal"
	"secext/internal/provenance"
	"secext/internal/subject"
	"secext/internal/telemetry"
)

// FuzzDecisionSurfaces is the differential oracle over every surface
// that computes an access decision. The name server is the one place
// protection is enforced (§2.3), so each surface must give the walk's
// answer, reason included, in every reachable state: Garrison & Lee's
// simulation correctness (arXiv 1504.07948), asked of one history.
//
// It replays a random policy history on a core.System — binds of files
// and directories, unbinds, ACL edits, relabels, lattice definitions,
// new principals (some named in an ACL before they register),
// membership churn, subgroup edges, wide directories, deep renames,
// multi-edit Applies that fail part-way, stack republications, and one
// bulk bind larger than a frame can hold — and, at every epoch it
// publishes, asks one bounded query set: every principal at its class
// and two subjects the registry does not know, on the bound paths (all
// of them in a small tree, a spread that moves with the version in a
// large one), the paths the transition removed and one unbound path,
// in every QueryModes set. The surfaces are:
//
//  1. Epoch.CompiledCheck, when it decides;
//  2. the walk (WalkOnly), the reference answer;
//  3. Server.CheckAccessIn;
//  4. core.CheckData, twice, so the second answer is a cache hit;
//  5. the traced check, which also runs the shadow compare;
//  6. provenance.ExplainCheck, whose working must agree with its verdict;
//  7. a mirror fed each transition's delta frames;
//  8. a mirror bootstrapped from the epoch's snapshot frames;
//  9. the secextmodel baseline adapter;
//  10. oracleCheck, the rules written out independently.
//
// Surfaces that only see the current epoch (4, 5, 9) are asked at the
// last epoch each operation publishes; the rest at every epoch. For a
// registered subject on the default stack, the compiled path must also
// decide every allow and every denial of a bound path.
func FuzzDecisionSurfaces(f *testing.F) {
	// Every operation once, then again with other payloads.
	f.Add([]byte{0, 7, 9, 1, 3, 4, 2, 0, 5, 1, 6, 9, 3, 33, 4, 8, 2, 40, 7, 11, 8, 1, 9, 200, 10, 3, 11, 5, 12, 7, 13, 14, 2, 9, 15, 6})
	// Relabels above and below the principals' classes, after lattice
	// definitions: hidden ancestors by ACL and by class, flow denials.
	f.Add([]byte{1, 2, 130, 4, 1, 3, 5, 1, 4, 2, 255, 1, 0, 66, 4, 6, 129, 4, 0, 7, 3, 1, 12, 4, 9, 61, 5, 2, 4, 3, 33})
	// Registry churn: new principals named in ACLs before they
	// register, enrolments, subgroup edges on and off, bulk membership
	// edits, some failing.
	f.Add([]byte{15, 3, 6, 1, 15, 5, 6, 64, 7, 1, 7, 8, 8, 9, 200, 8, 9, 7, 7, 9, 129, 6, 2, 7, 11, 8, 15, 1})
	// Wide directories and deep renames among plain edits.
	f.Add([]byte{10, 20, 7, 1, 11, 1, 0, 2, 3, 10, 90, 40, 2, 11, 4, 14, 5, 2, 3, 9, 14})
	// Multi-edit Applies, checked and unchecked, half failing on their
	// last edit.
	f.Add([]byte{12, 3, 12, 67, 12, 133, 12, 200, 2, 1, 12, 77, 14, 2, 12, 250})
	// Two long mixed histories.
	f.Add([]byte("the name server is the one facility that names every object"))
	f.Add([]byte("and every decision it makes must hold on every surface, reason included"))
	// One bulk bind whose delta spans more than one MaxFrame.
	f.Add([]byte{10, 255, 0, 2, 130, 3, 1, 4, 2, 7, 2, 2, 2})
	f.Fuzz(replayHistory)
}

// replayHistory runs one script's history, checking every epoch.
func replayHistory(t *testing.T, script []byte) {
	if len(script) > 48 {
		script = script[:48]
	}
	w := newSurfaceWorld(t)
	w.checkPending()
	h := &history{script: script}
	for !h.done() {
		w.step(h)
		w.checkPending()
	}
	// Pinned epochs are immutable: each still answers as it did.
	for _, ep := range w.pinned {
		w.checkEpoch(nil, ep, false)
	}
}

// surfaceWorld is the system under test and the surfaces around it.
type surfaceWorld struct {
	t     *testing.T
	sys   *core.System
	srv   *names.Server
	lat   *lattice.Lattice
	reg   *principal.Registry
	root  *subject.Context
	bot   lattice.Class
	model *secextmodel.Model
	tel   *telemetry.Telemetry
	delta *names.Mirror

	// pending holds the transitions published since the last check, in
	// order, as the transition hook delivered them.
	pending [][2]*names.Epoch
	pinned  []*names.Epoch
	checked int
	serial  int
	added   int // principals the history registered: u0, u1, ...
	// huge is set once the bulk bind beyond a frame has run; hugeDelta
	// until its transition has been checked.
	huge, hugeDelta bool
}

// Subjects every history starts with, and the groups.
var (
	surfacePrincipals = []string{"root", "p0", "p1", "p2"}
	surfaceGroups     = []string{"g0", "g1"}
)

func newSurfaceWorld(t *testing.T) *surfaceWorld {
	t.Helper()
	sys, err := core.NewSystem(core.Options{
		Levels:     []string{"public", "org", "secret"},
		Categories: []string{"a", "b"},
		Telemetry:  telemetry.Options{Mode: telemetry.ModeOff},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &surfaceWorld{
		t: t, sys: sys, srv: sys.Names(), lat: sys.Lattice(), reg: sys.Registry(),
		model: secextmodel.New(sys),
		tel:   telemetry.New(telemetry.Options{Mode: telemetry.ModeFull, Kinds: []string{"data"}}),
	}
	w.bot, _ = w.lat.Bottom()
	for i, label := range []string{"public", "public", "org:{a}", "secret:{a,b}"} {
		w.register(surfacePrincipals[i], label)
	}
	if _, err := w.reg.Apply(principal.AddGroup("g0"), principal.AddGroup("g1"),
		principal.AddMember("g0", "p0"), principal.AddMember("g1", "p1")); err != nil {
		t.Fatal(err)
	}
	if w.root, err = sys.NewContext("root"); err != nil {
		t.Fatal(err)
	}
	open := acl.New(acl.Allow("root", acl.AllModes), acl.AllowGroup("g0", acl.Read|acl.List), acl.AllowEveryone(acl.List))
	if err := w.srv.SetACLUnchecked("/", open); err != nil {
		t.Fatal(err)
	}
	for _, n := range []core.NodeSpec{
		{Path: "/d0", Kind: names.KindDirectory, ACL: open},
		{Path: "/d0/f", Kind: names.KindFile, ACL: acl.New(acl.Allow("p0", acl.Read|acl.Write), acl.Allow("root", acl.AllModes))},
		// Everyone may append here, and p1 and p2 sit above it: a
		// write-append the DAC grants and the MAC refuses (no append down).
		{Path: "/d0/log", Kind: names.KindFile, ACL: acl.New(acl.AllowEveryone(acl.Read | acl.WriteAppend | acl.List))},
		{Path: "/d1", Kind: names.KindDirectory, ACL: acl.New(acl.Allow("root", acl.AllModes), acl.Allow("p1", acl.List|acl.Read)), Class: w.lat.MustClass("org", "a")},
		{Path: "/d1/f", Kind: names.KindFile, ACL: acl.New(acl.AllowGroup("g1", acl.AllModes)), Class: w.lat.MustClass("org", "a")},
	} {
		if _, err := sys.CreateNode(n); err != nil {
			t.Fatal(err)
		}
	}
	w.delta = names.MirrorFrom(t, names.SnapshotFrames(t, w.srv.Current()))
	w.pending = [][2]*names.Epoch{{w.srv.Current(), w.srv.Current()}}
	w.srv.SetTransitionHook(func(prev, next *names.Epoch) {
		w.pending = append(w.pending, [2]*names.Epoch{prev, next})
	})
	return w
}

// register adds a principal at the class label and gives the baseline
// adapter a context for it.
func (w *surfaceWorld) register(name, label string) {
	if _, err := w.sys.AddPrincipal(name, label); err != nil {
		w.t.Fatal(err)
	}
	if err := w.model.AddSubject(name); err != nil {
		w.t.Fatal(err)
	}
}

// history is a script of operations; an operation reads its payload
// bytes from the script after its own.
type history struct {
	script []byte
	i      int
}

func (h *history) done() bool { return h.i >= len(h.script) }

func (h *history) next() int {
	if h.done() {
		return 0
	}
	h.i++
	return int(h.script[h.i-1])
}

// paths returns the current tree's paths; dirs only its containers.
func (w *surfaceWorld) paths(dirs bool) []string {
	var out []string
	w.srv.Current().Walk(func(p string, n *names.Node) {
		if !dirs || !n.Kind().Leaf() {
			out = append(out, p)
		}
	})
	return out
}

func pick(list []string, b int) string { return list[b%len(list)] }

// who is the pool of names ACLs grant to: the starting principals, the
// ones the history registered, and the one it registers next.
func (w *surfaceWorld) who(b int) string {
	i := b % (len(surfacePrincipals) + w.added + 1)
	if i < len(surfacePrincipals) {
		return surfacePrincipals[i]
	}
	return fmt.Sprintf("u%d", i-len(surfacePrincipals))
}

var surfaceModeSets = []acl.Mode{
	acl.Read, acl.List | acl.Read, acl.Write, acl.WriteAppend, acl.Read | acl.Write | acl.Delete,
	acl.Extend | acl.Execute, acl.Administrate, acl.AllModes,
}

// aclFrom builds an ACL from two payload bytes: a grant to one name,
// and optionally root's full grant, a group grant, a deny and
// everyone's list.
func (w *surfaceWorld) aclFrom(b1, b2 int) *acl.ACL {
	entries := []acl.Entry{acl.Allow(w.who(b1), surfaceModeSets[b2%len(surfaceModeSets)])}
	if b1&1 == 0 {
		entries = append(entries, acl.Allow("root", acl.AllModes))
	}
	if b2&0x20 != 0 {
		entries = append(entries, acl.AllowGroup(surfaceGroups[b1>>6&1], acl.Read|acl.List|acl.WriteAppend))
	}
	if b2&0x40 != 0 {
		entries = append(entries, acl.Deny(w.who(b2>>3), surfaceModeSets[b1%len(surfaceModeSets)]))
	}
	if b2&0x80 != 0 || b1&0x10 != 0 {
		entries = append(entries, acl.AllowEveryone(acl.List))
	}
	return acl.New(entries...)
}

// classFrom draws a class from the current lattice: any level,
// including those the history defined, with a subset of {a, b}.
func (w *surfaceWorld) classFrom(b int) lattice.Class {
	levels := w.lat.Levels()
	cats := [][]string{nil, {"a"}, {"b"}, {"a", "b"}}[b>>4&3]
	return w.lat.MustClass(levels[b%len(levels)], cats...)
}

// step runs one operation of the history. Operations may fail — a
// rename into its own subtree, an unbind of a full directory, a checked
// edit root lost the right to make — and then publish nothing.
func (w *surfaceWorld) step(h *history) {
	w.serial++
	op, b := h.next()%16, h.next()
	switch op {
	case 0, 1: // bind a file or a directory
		kind := names.KindFile
		if op == 1 {
			kind = names.KindDirectory
		}
		w.srv.BindUnchecked(pick(w.paths(true), b), names.BindSpec{
			Name: fmt.Sprintf("n%d", w.serial), Kind: kind,
			ACL: w.aclFrom(b, h.next()), Class: w.classFrom(h.next()),
		})
	case 2: // unbind
		w.srv.Apply(nil, lattice.Class{}, names.Unbind(pick(w.paths(false), b)))
	case 3: // ACL edit, the root's and interior ones included
		w.srv.SetACLUnchecked(pick(w.paths(false), b), w.aclFrom(h.next(), h.next()))
	case 4: // relabel
		w.srv.Apply(nil, lattice.Class{}, names.SetClass(pick(w.paths(false), b), w.classFrom(h.next())))
	case 5: // lattice definition
		if b&1 == 0 {
			w.lat.DefineLevel(fmt.Sprintf("lv%d", w.serial))
		} else {
			w.lat.DefineCategory(fmt.Sprintf("c%d", w.serial))
		}
	case 6: // a new principal, possibly already named by an ACL
		if w.added < 6 {
			w.register(fmt.Sprintf("u%d", w.added), w.classFrom(b).String())
			w.added++
		}
	case 7: // membership toggle
		g, p := surfaceGroups[b&1], w.who(b>>1)
		if members, _ := w.reg.Members(g); slices.Contains(members, p) {
			w.reg.Apply(principal.RemoveMember(g, p))
		} else {
			w.reg.Apply(principal.AddMember(g, p))
		}
	case 8: // subgroup edge g1 ⊆ g0, toggled
		if members, _ := w.reg.Members("g0"); slices.Contains(members, "@g1") {
			w.reg.Apply(principal.RemoveMember("g0", "g1"))
		} else {
			w.reg.Apply(principal.AddMember("g0", "g1"))
		}
	case 9: // bulk membership, failing on an unknown member when b says so
		g := surfaceGroups[b&1]
		edits := []principal.Edit{principal.AddMember(g, "p0"), principal.AddMember(g, "p2"), principal.RemoveMember(g, "p1")}
		if b&0x80 != 0 {
			edits = append(edits, principal.AddMember(g, "nobody"))
		}
		w.reg.Apply(edits...)
	case 10: // wide directory in one bulk bind; b == 255 once: past a frame
		w.wideDir(pick(w.paths(true), h.next()), b, w.aclFrom(h.next(), h.next()))
	case 11: // deep chain, then rename its head through the monitor
		parent := pick(w.paths(true), b)
		base := fmt.Sprintf("deep%d", w.serial)
		open := acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List))
		specs := []names.SubtreeSpec{{Path: base, Kind: names.KindDirectory, ACL: open, Class: w.bot}}
		for rel, d := base, 0; d < 12; d++ {
			rel += "/c"
			specs = append(specs, names.SubtreeSpec{Path: rel, Kind: names.KindDirectory, ACL: open, Class: w.bot})
		}
		if _, _, err := w.srv.BindSubtreeUnchecked(parent, specs); err == nil {
			w.sys.Apply(w.root, names.Rename(names.Join(parent, base), parent, fmt.Sprintf("moved%d", w.serial)))
		}
	case 12: // multi-edit Apply, all or nothing
		w.multiEdit(pick(w.paths(true), h.next()), b)
	case 13: // stack republication
		w.srv.PublishStack(w.srv.Current().Stack())
	case 14: // rename into another directory
		w.srv.Apply(nil, lattice.Class{}, names.Rename(pick(w.paths(false), b), pick(w.paths(true), h.next()), fmt.Sprintf("mv%d", w.serial)))
	case 15: // an interior ACL naming the principal op 6 registers next
		w.srv.SetACLUnchecked(pick(w.paths(true), b), acl.New(
			acl.Allow("root", acl.AllModes),
			acl.Allow(fmt.Sprintf("u%d", w.added), acl.List|acl.Read),
			acl.AllowGroup(surfaceGroups[b&1], acl.List),
		))
	}
}

// wideDir bulk-binds a directory of 16+b files under parent, unless
// the tree already holds 2000 nodes. The first b == 255 instead binds
// files with 1 KiB names, enough that the delta's frames exceed
// MaxFrame; the check of that transition confirms it.
func (w *surfaceWorld) wideDir(parent string, b int, a *acl.ACL) {
	if w.srv.Size() > 2000 {
		return
	}
	width, pad := 16+b, ""
	if b == 255 && !w.huge {
		w.huge, w.hugeDelta = true, true
		width, pad = 1060, strings.Repeat("x", 1020)
	}
	dir := fmt.Sprintf("w%d", w.serial)
	specs := []names.SubtreeSpec{{Path: dir, Kind: names.KindDirectory, ACL: a, Class: w.bot}}
	other := acl.New(acl.Allow("p1", acl.Read), acl.AllowEveryone(acl.List))
	for k := 0; k < width; k++ {
		fa := a
		if k%7 == 3 {
			fa = other
		}
		specs = append(specs, names.SubtreeSpec{
			Path: fmt.Sprintf("%s/%s%05d", dir, pad, k), Kind: names.KindFile, ACL: fa, Class: w.bot,
		})
	}
	w.srv.BindSubtreeUnchecked(parent, specs)
}

// multiEdit applies 1–6 binds, each followed by an ACL edit of the new
// node, checked as root through the monitor or unchecked; when b says
// so its last edit unbinds a missing name, so the whole Apply fails.
// Either every bind is visible afterwards or none is.
func (w *surfaceWorld) multiEdit(dir string, b int) {
	var edits []names.Edit
	var bound []string
	for k := 0; k < 1+b%6; k++ {
		name := fmt.Sprintf("m%d-%d", w.serial, k)
		bound = append(bound, names.Join(dir, name))
		edits = append(edits,
			names.Bind(dir, names.BindSpec{Name: name, Kind: names.KindFile, ACL: w.aclFrom(b, k), Class: w.bot}),
			names.SetACL(names.Join(dir, name), w.aclFrom(k, b)))
	}
	fails := b&0x40 != 0
	if fails {
		edits = append(edits, names.Unbind(names.Join(dir, "missing")))
	}
	var err error
	if b&0x80 != 0 {
		_, err = w.sys.Apply(w.root, edits...)
	} else {
		_, err = w.srv.Apply(nil, lattice.Class{}, edits...)
	}
	if fails && err == nil {
		w.t.Fatal("an Apply ending in a missing unbind succeeded")
	}
	for _, p := range bound {
		if _, rerr := w.srv.Current().Lookup(p); (err == nil) != (rerr == nil) {
			w.t.Fatalf("Apply err=%v, but %s resolves with err=%v", err, p, rerr)
		}
	}
}

// checkPending feeds each pending transition's delta to the delta
// mirror and checks the epoch it reached; the last one, the current
// epoch, is checked on every surface.
func (w *surfaceWorld) checkPending() {
	t := w.t
	for i, tr := range w.pending {
		prev, next := tr[0], tr[1]
		if prev != next {
			d, err := names.DiffEpochs(prev, next)
			if err != nil {
				t.Fatalf("diff v%d->v%d: %v", prev.Version(), next.Version(), err)
			}
			if w.hugeDelta {
				w.hugeDelta = false
				size := 0
				for _, fr := range names.EncodeFrames(t, d) {
					size += len(fr)
				}
				if size <= names.MaxFrame {
					t.Fatalf("the bulk bind's delta is %d bytes, within one frame", size)
				}
			}
			if err := w.delta.Apply(t, d); err != nil {
				t.Fatalf("delta mirror at v%d: %v", next.Version(), err)
			}
		}
		w.checkEpoch(prev, next, i == len(w.pending)-1 && next == w.srv.Current())
		if w.checked++; w.checked%8 == 1 {
			w.pinned = append(w.pinned, next)
		}
	}
	w.pending = w.pending[:0]
}

// asker is one query subject: a registered principal's context, or a
// name the registry does not know at the bottom class.
type asker struct {
	sub provenance.Subject
	ctx *subject.Context // nil for an unregistered name
}

type ghost struct {
	name  string
	class lattice.Class
}

func (g ghost) SubjectName() string  { return g.name }
func (g ghost) MemberOf(string) bool { return false }
func (g ghost) Class() lattice.Class { return g.class }

// askers returns ep's principals, as contexts of the live system, and
// two unregistered names: one nothing grants to, and the one the
// history registers next, which an ACL may already name.
func (w *surfaceWorld) askers(ep *names.Epoch) []asker {
	var out []asker
	for _, name := range ep.Registry().Principals() {
		ctx, err := w.sys.NewContext(name)
		if err != nil {
			w.t.Fatal(err)
		}
		out = append(out, asker{sub: ctx, ctx: ctx})
	}
	for _, name := range []string{"nobody", fmt.Sprintf("u%d", w.added)} {
		if !ep.Registry().HasPrincipal(name) {
			out = append(out, asker{sub: ghost{name, w.bot}})
		}
	}
	return out
}

// checkEpoch asks ep's query set of every surface. prev is the epoch
// the transition left (nil for none); its paths that ep no longer binds
// are asked too. The delta mirror is asked only when it stands at ep,
// the current-epoch surfaces only when current.
func (w *surfaceWorld) checkEpoch(prev, ep *names.Epoch, current bool) {
	t := w.t
	if ep.Size() <= 100 {
		// Comparing a full rebuild costs the tree times the ID space.
		names.AssertCompiledStructure(t, ep, ep.Registry().Principals())
	}
	paths := names.QueryPaths(ep, 24)
	if prev != nil && prev != ep {
		gone := 0
		prev.Walk(func(p string, _ *names.Node) {
			if _, err := ep.Lookup(p); err != nil && gone < 8 {
				paths = append(paths, p)
				gone++
			}
		})
	}
	boot := names.MirrorFrom(t, names.SnapshotFrames(t, ep))
	var delta *names.Mirror
	if prev != nil {
		delta = w.delta
	}
	for _, a := range w.askers(ep) {
		for _, path := range paths {
			for _, modes := range names.QueryModes {
				w.query(ep, a, path, modes, boot, delta, current)
			}
		}
	}
	if current {
		if st := w.srv.Stats(); st.Divergences != 0 {
			t.Fatalf("v%d: the shadow monitor counted %d divergences", ep.Version(), st.Divergences)
		}
	}
}

// baselineOps maps the single modes the baseline vocabulary names.
var baselineOps = map[acl.Mode]baseline.Op{
	acl.Read: baseline.OpRead, acl.Write: baseline.OpWrite, acl.WriteAppend: baseline.OpAppend,
	acl.Delete: baseline.OpDelete, acl.List: baseline.OpList,
}

// query asks one (subject, class, path, modes) of every surface and
// holds each answer to the walk's.
func (w *surfaceWorld) query(ep *names.Epoch, a asker, path string, modes acl.Mode, boot, delta *names.Mirror, current bool) {
	t := w.t
	sub, name, class := a.sub, a.sub.SubjectName(), a.sub.Class()
	_, want := w.srv.CheckAccessIn(names.WalkOnly(ep), sub, class, path, modes)
	where := func() string {
		return fmt.Sprintf("v%d: %s at %s asks %v on %s; the walk says %v", ep.Version(), name, class, modes, path, want)
	}
	agree := func(surface string, got error) {
		if !names.SameDecision(want, got) {
			t.Fatalf("%s; %s says %v", where(), surface, got)
		}
	}
	var denied *names.DeniedError
	isDenial := errors.As(want, &denied)
	_, lookErr := ep.Lookup(path)

	// 1. The compiled path, and its completeness bar.
	if _, err, decided := ep.CompiledCheck(sub, class, path, modes); decided {
		agree("the compiled path", err)
	} else if a.ctx != nil && names.CompiledFast(ep) && (want == nil || isDenial && lookErr == nil) {
		t.Fatalf("%s; the compiled path did not decide", where())
	}
	// 3. The uncached check.
	_, err := w.srv.CheckAccessIn(ep, sub, class, path, modes)
	agree("CheckAccessIn", err)
	if current {
		// 4. The reference monitor, a miss and then a hit.
		if a.ctx != nil {
			_, miss := w.sys.CheckData(a.ctx, path, modes)
			agree("CheckData", miss)
			_, hit := w.sys.CheckData(a.ctx, path, modes)
			agree("CheckData (cached)", hit)
			// 9. The baseline adapter, for the modes it can name.
			if op, ok := baselineOps[modes]; ok {
				if got := w.model.CheckData(name, path, op); got != (want == nil) {
					t.Fatalf("%s; secextmodel says allow=%v", where(), got)
				}
			}
		}
		// 5. The traced check. The cache is set aside so the trace takes
		// the walk and the shadow compare instead of the entry just stored.
		cache := w.srv.DecisionCache()
		w.srv.SetDecisionCache(nil)
		tr := w.tel.StartTrace("data", name, path, modes.String())
		_, _, terr := w.srv.CheckAccess(sub, class, path, modes, tr)
		tr.Finish(0, terr == nil, "")
		w.srv.SetDecisionCache(cache)
		agree("the traced check", terr)
	}
	// 6. Explain: its verdict, and its working.
	explainAgrees(t, provenance.ExplainCheck(ep, sub, path, modes), want, denied, path, where)
	// 7, 8. The replicas.
	if delta != nil {
		agree("the delta-fed mirror", delta.Ask(name, class, path, modes))
	}
	agree("the bootstrapped mirror", boot.Ask(name, class, path, modes))
	// 10. The rules, written out.
	if got := oracleCheck(ep, sub, class, path, modes); got != (want == nil) {
		t.Fatalf("%s; the rule oracle says allow=%v", where(), got)
	}
}

// explainAgrees holds an explanation to the walk's answer: the same
// verdict and reason; on an allow, every traversal step visible and
// every guard allowing; on a denial, the first hiding step, or else the
// decisive guard, carrying the reason.
func explainAgrees(t *testing.T, ex *provenance.Explanation, want error, denied *names.DeniedError, path string, where func() string) {
	if ex.Allowed != (want == nil) || want != nil && ex.Reason != want.Error() {
		t.Fatalf("%s; Explain says allowed=%v %q", where(), ex.Allowed, ex.Reason)
	}
	hiding := slices.IndexFunc(ex.Traversal, func(s provenance.TraversalStep) bool { return !s.Visible })
	switch {
	case want == nil:
		if hiding >= 0 || !ex.Resolved || ex.ShortCircuit >= 0 {
			t.Fatalf("%s; Explain's working denies: %s", where(), ex)
		}
	case denied != nil && hiding >= 0:
		if s := ex.Traversal[hiding]; s.Path != denied.Path || s.Reason != denied.Why {
			t.Fatalf("%s; Explain's first hiding step is %s: %s", where(), s.Path, s.Reason)
		}
	case denied != nil:
		if denied.Path != path || ex.ShortCircuit < 0 || ex.Guards[ex.ShortCircuit].Reason != denied.Why {
			t.Fatalf("%s; Explain hides nothing and its decisive guard disagrees: %s", where(), ex)
		}
	default:
		if hiding >= 0 || ex.Resolved {
			t.Fatalf("%s; Explain resolved or hid: %s", where(), ex)
		}
	}
}

// oracleCheck decides a check from the rules alone, apart from the
// guard stack and the compiled view: list (DAC) and MAC read on every
// node strictly above the target, then the requested modes (DAC) and
// their flow rules (MAC) on the target.
func oracleCheck(ep *names.Epoch, sub acl.Subject, class lattice.Class, path string, modes acl.Mode) bool {
	var ancestors []string
	if path != "/" {
		ancestors = append(ancestors, "/")
		for i := 1; i < len(path); i++ {
			if path[i] == '/' {
				ancestors = append(ancestors, path[:i])
			}
		}
	}
	members := ep.Membership()
	for _, anc := range ancestors {
		n, err := ep.Lookup(anc)
		if err != nil || !n.ACL().CheckIn(sub, acl.List, members) || !oracleMAC(class, n.Class(), acl.List) {
			return false
		}
	}
	n, err := ep.Lookup(path)
	return err == nil && n.ACL().CheckIn(sub, modes, members) && oracleMAC(class, n.Class(), modes)
}

// oracleMAC is the flow-rule grouping of §2.2: the read group needs
// CanRead, the write group CanWrite, and write-append CanAppend.
func oracleMAC(subject, object lattice.Class, modes acl.Mode) bool {
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

// TestCheckAccessMatchesPreRefactorOracle: on randomized two-level
// trees of random ACLs and classes, the server's check must agree with
// oracleCheck, the decision procedure written from the rules alone.
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

	for round := 0; round < 20; round++ {
		srv := names.NewServer(lat, randomACL(rng, principals), bottom)
		// Random two-level tree, built unchecked.
		var leaves []string
		for d := 0; d < 3; d++ {
			dir := fmt.Sprintf("/d%d", d)
			if _, err := srv.BindUnchecked("/", names.BindSpec{
				Name: fmt.Sprintf("d%d", d), Kind: names.KindDirectory,
				ACL: randomACL(rng, principals), Class: classPool[rng.Intn(len(classPool))],
			}); err != nil {
				t.Fatal(err)
			}
			leaves = append(leaves, dir)
			for f := 0; f < 3; f++ {
				if _, err := srv.BindUnchecked(dir, names.BindSpec{
					Name: fmt.Sprintf("f%d", f), Kind: names.KindFile,
					ACL: randomACL(rng, principals), Class: classPool[rng.Intn(len(classPool))],
				}); err != nil {
					t.Fatal(err)
				}
				leaves = append(leaves, fmt.Sprintf("%s/f%d", dir, f))
			}
		}

		ep := srv.Current()
		for q := 0; q < 400; q++ {
			sub := ghost{name: principals[rng.Intn(len(principals))]}
			class := classPool[rng.Intn(len(classPool))]
			path := leaves[rng.Intn(len(leaves))]
			modes := acl.Mode(rng.Intn(int(acl.AllModes))) + 1

			want := oracleCheck(ep, sub, class, path, modes)
			_, _, err := srv.CheckAccess(sub, class, path, modes, nil)
			if got := err == nil; got != want {
				t.Fatalf("round %d: CheckAccess(%s, %s, %s, %s) = %v (err=%v); oracle says %v",
					round, sub.name, class, path, modes, got, err, want)
			}
		}
	}
}
