package names

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/principal"
)

// mirror is an in-process replica of a primary name server at the
// names layer: it bootstraps from a WireSnapshot and tracks the
// primary by replaying wire deltas, exactly as internal/replica does
// over TCP (lattice and registry through the ordinary append-only
// entry points, tree and traversal through ApplyReplicated).
type mirror struct {
	lat *lattice.Lattice
	reg *principal.Registry
	srv *Server
}

func newMirror(t testing.TB, primary *Server) *mirror {
	t.Helper()
	wire, err := primary.Current().WireSnapshot()
	if err != nil {
		t.Fatalf("WireSnapshot: %v", err)
	}
	lat, err := lattice.NewWithUniverse(wire.Levels, wire.Categories)
	if err != nil {
		t.Fatalf("mirror lattice: %v", err)
	}
	bot, _ := lat.Bottom()
	srv := NewServer(lat, acl.New(acl.AllowEveryone(acl.List)), bot)
	reg := principal.NewRegistry(lat)
	for _, pw := range wire.Principals {
		class, err := lat.ParseClass(pw.Class)
		if err != nil {
			t.Fatalf("mirror principal %s: %v", pw.Name, err)
		}
		if _, err := reg.Apply(principal.AddPrincipal(pw.Name, class)); err != nil {
			t.Fatalf("mirror principal %s: %v", pw.Name, err)
		}
	}
	for _, gw := range wire.Groups {
		if _, err := reg.Apply(principal.AddGroup(gw.Name)); err != nil {
			t.Fatalf("mirror group %s: %v", gw.Name, err)
		}
	}
	for _, gw := range wire.Groups {
		for _, m := range gw.Members {
			if _, err := reg.Apply(principal.AddMember(gw.Name, strings.TrimPrefix(m, "@"))); err != nil {
				t.Fatalf("mirror member %s->%s: %v", m, gw.Name, err)
			}
		}
	}
	srv.AttachRegistry(reg)
	if _, err := srv.ApplyReplicated(ReplicaApply{
		PrimaryVersion: wire.Version,
		Traversal:      wire.Traversal,
		Full:           wire.Nodes,
	}); err != nil {
		t.Fatalf("mirror bootstrap apply: %v", err)
	}
	return &mirror{lat: lat, reg: reg, srv: srv}
}

// apply replays one delta after a JSON round-trip — the wire contract
// under test is decode(encode(d)), not the in-memory struct.
func (m *mirror) apply(t testing.TB, d *EpochDelta) error {
	t.Helper()
	body, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("delta marshal: %v", err)
	}
	var dd EpochDelta
	if err := json.Unmarshal(body, &dd); err != nil {
		t.Fatalf("delta unmarshal: %v", err)
	}
	for _, lv := range dd.Levels {
		if _, err := m.lat.DefineLevel(lv); err != nil {
			return err
		}
	}
	for _, c := range dd.Categories {
		if _, err := m.lat.DefineCategory(c); err != nil {
			return err
		}
	}
	for _, pw := range dd.Principals {
		class, err := m.lat.ParseClass(pw.Class)
		if err != nil {
			return err
		}
		if _, err := m.reg.Apply(principal.AddPrincipal(pw.Name, class)); err != nil {
			return err
		}
	}
	for _, gw := range dd.Groups {
		if !m.reg.Freeze().HasGroup(gw.Name) {
			if _, err := m.reg.Apply(principal.AddGroup(gw.Name)); err != nil {
				return err
			}
		}
		cur, err := m.reg.Members(gw.Name)
		if err != nil {
			return err
		}
		want := make(map[string]bool, len(gw.Members))
		for _, mem := range gw.Members {
			want[mem] = true
		}
		have := make(map[string]bool, len(cur))
		for _, mem := range cur {
			have[mem] = true
		}
		for _, mem := range cur {
			if !want[mem] {
				if _, err := m.reg.Apply(principal.RemoveMember(gw.Name, strings.TrimPrefix(mem, "@"))); err != nil {
					return err
				}
			}
		}
		for _, mem := range gw.Members {
			if !have[mem] {
				if _, err := m.reg.Apply(principal.AddMember(gw.Name, strings.TrimPrefix(mem, "@"))); err != nil {
					return err
				}
			}
		}
	}
	_, err = m.srv.ApplyReplicated(ReplicaApply{
		PrimaryVersion: dd.Version,
		Traversal:      dd.Traversal,
		Upserts:        dd.Upserts,
		Deletes:        dd.Deletes,
	})
	return err
}

// wireEquivalent deep-compares the protection state of two epochs:
// traversal flag, lattice universe, registry contents, guard-stack
// descriptor, and every node's wire form (path, kind, class, ACL,
// multilevel — payloads excluded by design). Returns "" when equal.
func wireEquivalent(a, b *Epoch) string {
	if a.TraversalChecks() != b.TraversalChecks() {
		return fmt.Sprintf("traversal %v vs %v", a.TraversalChecks(), b.TraversalChecks())
	}
	if !sameStrings(a.Lattice().Levels(), b.Lattice().Levels()) {
		return fmt.Sprintf("levels %v vs %v", a.Lattice().Levels(), b.Lattice().Levels())
	}
	if !sameStrings(a.Lattice().Categories(), b.Lattice().Categories()) {
		return fmt.Sprintf("categories %v vs %v", a.Lattice().Categories(), b.Lattice().Categories())
	}
	if !sameStrings(a.Stack().Guards(), b.Stack().Guards()) {
		return fmt.Sprintf("stack %v vs %v", a.Stack().Guards(), b.Stack().Guards())
	}
	ap, ag, aerr := registryWire(a)
	bp, bg, berr := registryWire(b)
	if aerr != nil || berr != nil {
		return fmt.Sprintf("registry encode: %v / %v", aerr, berr)
	}
	if fmt.Sprintf("%v", ap) != fmt.Sprintf("%v", bp) {
		return fmt.Sprintf("principals %v vs %v", ap, bp)
	}
	if fmt.Sprintf("%v", ag) != fmt.Sprintf("%v", bg) {
		return fmt.Sprintf("groups %v vs %v", ag, bg)
	}
	encode := func(ep *Epoch) ([]NodeWire, error) {
		var out []NodeWire
		var werr error
		ep.Walk(func(path string, n *Node) {
			if werr != nil {
				return
			}
			w, err := encodeNode(n, ep.lat)
			if err != nil {
				werr = err
				return
			}
			out = append(out, w)
		})
		return out, werr
	}
	an, aerr2 := encode(a)
	bn, berr2 := encode(b)
	if aerr2 != nil || berr2 != nil {
		return fmt.Sprintf("tree encode: %v / %v", aerr2, berr2)
	}
	if len(an) != len(bn) {
		return fmt.Sprintf("tree size %d vs %d", len(an), len(bn))
	}
	for i := range an {
		if an[i] != bn[i] {
			return fmt.Sprintf("node %d: %+v vs %+v", i, an[i], bn[i])
		}
	}
	return ""
}

// verdictsAgree compares mediated verdicts between the two epochs for
// every principal on every leaf path — on a compiled epoch this runs
// the locally rebuilt summaries, so agreement here is the "compiled
// read side rebuilt at apply time matches the primary's" claim.
func verdictsAgree(a, b *Epoch) string {
	if a.Registry() == nil || b.Registry() == nil {
		return ""
	}
	var leaves []string
	a.Walk(func(path string, n *Node) {
		if n.Kind().Leaf() {
			leaves = append(leaves, path)
		}
	})
	for _, name := range a.Registry().Principals() {
		// Classes are lattice-scoped (cross-lattice comparisons are
		// always false), so each side checks with the class its own
		// registry assigned — exactly what a live replica does.
		pa, err := a.Registry().Principal(name)
		if err != nil {
			return err.Error()
		}
		pb, err := b.Registry().Principal(name)
		if err != nil {
			return fmt.Sprintf("mirror missing principal %s: %v", name, err)
		}
		for _, path := range leaves {
			for _, mode := range []acl.Mode{acl.Read, acl.Write, acl.Administrate} {
				_, aerr := a.CheckIn(subj(name), pa.Class(), path, mode)
				_, berr := b.CheckIn(subj(name), pb.Class(), path, mode)
				if (aerr == nil) != (berr == nil) {
					return fmt.Sprintf("%s %s on %s: primary err=%v, mirror err=%v",
						name, mode, path, aerr, berr)
				}
			}
		}
	}
	return ""
}

// wirePrimary builds a primary with tree, registry, groups, and a
// multilevel directory — every wire feature in one fixture.
func wirePrimary(t *testing.T) (*fixture, *principal.Registry) {
	t.Helper()
	f := newFixture(t)
	f.mkTree(t)
	reg := principal.NewRegistry(f.lat)
	if _, err := reg.Apply(principal.AddPrincipal("alice", f.org)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Apply(principal.AddPrincipal("bob", f.bot)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Apply(principal.AddGroup("eng")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Apply(principal.AddMember("eng", "alice")); err != nil {
		t.Fatal(err)
	}
	f.srv.AttachRegistry(reg)
	open := acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List))
	if _, err := f.srv.BindUnchecked("/svc", BindSpec{
		Name: "home", Kind: KindDirectory, ACL: open, Class: f.bot, Multilevel: true,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.BindUnchecked("/svc/home", BindSpec{
		Name: "f1", Kind: KindFile,
		ACL:   acl.New(acl.Allow("root", acl.AllModes), acl.Allow("alice", acl.Read|acl.Write)),
		Class: f.org,
	}); err != nil {
		t.Fatal(err)
	}
	return f, reg
}

// TestWireSnapshotRoundTrip: a mirror bootstrapped from a snapshot is
// protection-state-equivalent to the primary, and its locally rebuilt
// compiled read side answers identically.
func TestWireSnapshotRoundTrip(t *testing.T) {
	f, _ := wirePrimary(t)
	m := newMirror(t, f.srv)
	pe, me := f.srv.Current(), m.srv.Current()
	if diff := wireEquivalent(pe, me); diff != "" {
		t.Fatalf("snapshot round-trip not equivalent: %s", diff)
	}
	if pe.Compiled() != me.Compiled() {
		t.Fatalf("compiled: primary %v, mirror %v", pe.Compiled(), me.Compiled())
	}
	if diff := verdictsAgree(pe, me); diff != "" {
		t.Fatalf("verdicts diverge after snapshot: %s", diff)
	}
}

// TestWireDeltaSequence tracks the primary through one mutation of
// every shard, applying the JSON-round-tripped delta after each and
// asserting equivalence.
func TestWireDeltaSequence(t *testing.T) {
	f, reg := wirePrimary(t)
	m := newMirror(t, f.srv)
	prev := f.srv.Current()

	step := func(what string, mutate func() error) {
		t.Helper()
		if err := mutate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		next := f.srv.Current()
		d, err := DiffEpochs(prev, next)
		if err != nil {
			t.Fatalf("%s: diff: %v", what, err)
		}
		if err := m.apply(t, d); err != nil {
			t.Fatalf("%s: apply: %v", what, err)
		}
		if diff := wireEquivalent(next, m.srv.Current()); diff != "" {
			t.Fatalf("%s: not equivalent: %s", what, diff)
		}
		if diff := verdictsAgree(next, m.srv.Current()); diff != "" {
			t.Fatalf("%s: verdicts diverge: %s", what, diff)
		}
		prev = next
	}

	step("acl edit", func() error {
		return f.srv.SetACLUnchecked("/svc/fs/read", acl.New(acl.Allow("alice", acl.Read)))
	})
	step("bind", func() error {
		_, err := f.srv.BindUnchecked("/svc/home", BindSpec{
			Name: "f2", Kind: KindFile,
			ACL: acl.New(acl.AllowGroup("eng", acl.Read)), Class: f.bot,
		})
		return err
	})
	step("delete", func() error { _, err := f.srv.Apply(f.root, f.org, Unbind("/svc/home/f1")); return err })
	step("level define", func() error { _, err := f.lat.DefineLevel("ultra"); return err })
	step("category define", func() error { _, err := f.lat.DefineCategory("dept-3"); return err })
	step("principal add", func() error {
		_, err := reg.Apply(principal.AddPrincipal("carol", f.org))
		return err
	})
	step("member add", func() error { _, err := reg.Apply(principal.AddMember("eng", "carol")); return err })
	step("member remove (revocation)", func() error { _, err := reg.Apply(principal.RemoveMember("eng", "alice")); return err })
	step("traversal toggle", func() error { f.srv.SetTraversalChecks(true); return nil })
	step("class change", func() error {
		ultra := f.lat.MustClass("ultra", "dept-3")
		return f.srv.SetClassUnchecked("/svc/home", ultra)
	})
}

// FuzzEpochDeltaCodec drives a random mutation script against a
// primary, derives the delta for every transition, JSON round-trips
// it, applies it to a mirror, and requires the mirror to equal the
// primary's successor epoch — the replication soundness claim,
// fuzzed. Each script byte selects one mutation; payload bytes are
// folded into names so scripts explore bind/delete collisions.
func FuzzEpochDeltaCodec(f *testing.F) {
	f.Add([]byte("ab"))
	f.Add([]byte("nnd"))
	f.Add([]byte("lcpgr"))
	f.Add([]byte("anbndlcpgrtna"))
	f.Add([]byte{0xff, 0x00, 'n', 'd', 'd', 'n'})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 48 {
			script = script[:48]
		}
		fx, reg := wirePrimary(t)
		m := newMirror(t, fx.srv)
		prev := fx.srv.Current()
		open := acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List))
		var bound []string
		seq := 0
		for i, op := range script {
			var err error
			switch op % 8 {
			case 0: // acl flip on a fixed node
				a := acl.New(acl.Allow("alice", acl.Read))
				if i%2 == 0 {
					a = acl.New(acl.AllowGroup("eng", acl.Read|acl.Write))
				}
				err = fx.srv.SetACLUnchecked("/svc/fs/read", a)
			case 1: // bind a fresh node under /svc/home
				seq++
				name := fmt.Sprintf("n%d", seq)
				_, err = fx.srv.BindUnchecked("/svc/home", BindSpec{
					Name: name, Kind: KindFile, ACL: open, Class: fx.bot,
				})
				if err == nil {
					bound = append(bound, "/svc/home/"+name)
				}
			case 2: // delete the most recent bound node, if any
				if len(bound) == 0 {
					continue
				}
				_, err = fx.srv.Apply(fx.root, fx.bot, Unbind(bound[len(bound)-1]))
				bound = bound[:len(bound)-1]
			case 3: // append a lattice level
				seq++
				_, err = fx.lat.DefineLevel(fmt.Sprintf("lv%d", seq))
			case 4: // append a category
				seq++
				_, err = fx.lat.DefineCategory(fmt.Sprintf("cat%d", seq))
			case 5: // add a principal
				seq++
				_, err = reg.Apply(principal.AddPrincipal(fmt.Sprintf("p%d", seq), fx.bot))
			case 6: // membership churn: add then remove exercise both
				if i%2 == 0 {
					_, err = reg.Apply(principal.AddMember("eng", "bob"))
				} else {
					_, err = reg.Apply(principal.RemoveMember("eng", "bob"))
				}
				if err != nil {
					// Adding a present member / removing an absent one
					// is a no-op for the protection state; skip.
					continue
				}
			case 7: // traversal toggle
				fx.srv.SetTraversalChecks(i%2 == 0)
			}
			if err != nil {
				t.Fatalf("op %d (%q): %v", i, op, err)
			}
			next := fx.srv.Current()
			if next.Version() == prev.Version() {
				continue
			}
			d, err := DiffEpochs(prev, next)
			if err != nil {
				t.Fatalf("op %d: diff v%d->v%d: %v", i, prev.Version(), next.Version(), err)
			}
			if err := m.apply(t, d); err != nil {
				t.Fatalf("op %d: apply v%d->v%d: %v", i, prev.Version(), next.Version(), err)
			}
			if diff := wireEquivalent(next, m.srv.Current()); diff != "" {
				t.Fatalf("op %d: mirror diverged at v%d: %s", i, next.Version(), diff)
			}
			prev = next
		}
		if diff := verdictsAgree(prev, m.srv.Current()); diff != "" {
			t.Fatalf("final verdicts diverge: %s", diff)
		}
	})
}

// TestJournalWraparound: more transitions than the ring holds — the
// journal keeps exactly journalCap records, newest first, and the
// oldest are dropped.
func TestJournalWraparound(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	a := acl.New(acl.Allow("alice", acl.Read))
	b := acl.New(acl.Allow("bob", acl.Read))
	base := f.srv.Version()
	const n = journalCap + 40
	for i := 0; i < n; i++ {
		next := a
		if i%2 == 0 {
			next = b
		}
		if err := f.srv.SetACLUnchecked("/svc/fs/read", next); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.srv.JournalLen(); got != journalCap {
		t.Fatalf("JournalLen = %d, want cap %d", got, journalCap)
	}
	recs := f.srv.Journal(0)
	if len(recs) != journalCap {
		t.Fatalf("Journal(0) returned %d records, want %d", len(recs), journalCap)
	}
	// Newest first, versions strictly descending, and the oldest
	// retained record is exactly cap transitions back.
	for i := 1; i < len(recs); i++ {
		if recs[i].Version != recs[i-1].Version-1 {
			t.Fatalf("journal not newest-first at %d: v%d then v%d",
				i, recs[i-1].Version, recs[i].Version)
		}
	}
	newest := f.srv.Version()
	if recs[0].Version != newest {
		t.Fatalf("newest journal record v%d, want current v%d", recs[0].Version, newest)
	}
	oldest := recs[len(recs)-1].Version
	if oldest != newest-journalCap+1 {
		t.Fatalf("oldest retained v%d, want v%d", oldest, newest-journalCap+1)
	}
	if oldest <= base {
		t.Fatalf("wraparound did not drop pre-churn records: oldest v%d, base v%d", oldest, base)
	}
}

// TestJournalReplicationKinds: replication applies journal with their
// own kind and the primary version they mirror; local publications
// stay unmarked.
func TestJournalReplicationKinds(t *testing.T) {
	f, _ := wirePrimary(t)
	m := newMirror(t, f.srv)

	// The mirror's bootstrap apply is stamped kind=replica with the
	// primary's version.
	recs := m.srv.Journal(1)
	if len(recs) != 1 {
		t.Fatalf("mirror journal empty after bootstrap")
	}
	if recs[0].Kind != "replica" || recs[0].PrimaryVersion != f.srv.Version() {
		t.Fatalf("bootstrap record kind=%q primary=v%d, want replica/v%d",
			recs[0].Kind, recs[0].PrimaryVersion, f.srv.Version())
	}

	// A stale-style apply records its distinct kind.
	if _, err := m.srv.ApplyReplicated(ReplicaApply{
		PrimaryVersion: f.srv.Version(),
		Kind:           "replica-stale",
		Traversal:      m.srv.Current().TraversalChecks(),
	}); err != nil {
		t.Fatal(err)
	}
	recs = m.srv.Journal(1)
	if recs[0].Kind != "replica-stale" {
		t.Fatalf("stale record kind=%q, want replica-stale", recs[0].Kind)
	}

	// Local publications carry no replication stamp.
	if err := f.srv.SetACLUnchecked("/svc/fs/read", acl.New(acl.Allow("alice", acl.Read))); err != nil {
		t.Fatal(err)
	}
	recs = f.srv.Journal(1)
	if recs[0].Kind != "" || recs[0].PrimaryVersion != 0 {
		t.Fatalf("local record stamped kind=%q primary=v%d", recs[0].Kind, recs[0].PrimaryVersion)
	}
}
