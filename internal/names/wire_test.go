package names

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/principal"
)

// mirror is an in-process replica of a primary name server at the
// names layer: it bootstraps from the primary's snapshot frames and
// tracks the primary by replaying its delta frames, exactly as
// internal/replica does over TCP (lattice entries through the ordinary
// append-only entry points, the registry through ReplayRegistry, the
// tree through BuildEpoch and ApplyReplicated).
type mirror struct {
	lat *lattice.Lattice
	reg *principal.Registry
	srv *Server
}

func newMirror(t testing.TB, primary *Server) *mirror {
	t.Helper()
	return mirrorFrom(t, snapshotFrames(t, primary.Current()))
}

// mirrorFrom bootstraps a mirror from a snapshot's frames.
func mirrorFrom(t testing.TB, frames [][]byte) *mirror {
	t.Helper()
	wire, err := DecodeEpoch(frameSource(frames))
	if err != nil {
		t.Fatalf("DecodeEpoch: %v", err)
	}
	lat, err := lattice.NewWithUniverse(wire.Levels, wire.Categories)
	if err != nil {
		t.Fatalf("mirror lattice: %v", err)
	}
	bot, _ := lat.Bottom()
	m := &mirror{lat: lat, reg: principal.NewRegistry(lat), srv: NewServer(lat, acl.New(acl.AllowEveryone(acl.List)), bot)}
	m.srv.AttachRegistry(m.reg)
	if err := m.install(wire); err != nil {
		t.Fatalf("mirror bootstrap: %v", err)
	}
	return m
}

// snapshotFrames encodes ep's snapshot and returns its frames.
func snapshotFrames(t testing.TB, ep *Epoch) [][]byte {
	t.Helper()
	wire, err := ep.WireSnapshot()
	if err != nil {
		t.Fatalf("WireSnapshot: %v", err)
	}
	return encodeFrames(t, wire)
}

// frameSource feeds frames to DecodeEpoch one line at a time, as a
// line scanner would, and reports a cut stream once they run out.
func frameSource(frames [][]byte) func() (string, error) {
	return func() (string, error) {
		if len(frames) == 0 {
			return "", io.ErrUnexpectedEOF
		}
		f := frames[0]
		frames = frames[1:]
		return strings.TrimSuffix(string(f), "\n"), nil
	}
}

// apply replays one delta after a round trip through its frames — the
// wire contract under test is decode(encode(d)), not the in-memory
// struct.
func (m *mirror) apply(t testing.TB, d *EpochWire) error {
	t.Helper()
	dd, err := DecodeEpoch(frameSource(encodeFrames(t, d)))
	if err != nil {
		t.Fatalf("delta frames: %v", err)
	}
	return m.install(dd)
}

// install applies one decoded message in the replica's order.
func (m *mirror) install(w *EpochWire) error {
	if w.From > 0 {
		for _, lv := range w.Levels {
			if _, err := m.lat.DefineLevel(lv); err != nil {
				return err
			}
		}
		for _, c := range w.Categories {
			if _, err := m.lat.DefineCategory(c); err != nil {
				return err
			}
		}
	}
	if err := ReplayRegistry(m.reg, m.lat, w); err != nil {
		return err
	}
	tree, err := m.srv.BuildEpoch(w)
	if err != nil {
		return err
	}
	_, err = m.srv.ApplyReplicated(ReplicaApply{PrimaryVersion: w.Version, Tree: tree})
	return err
}

// wireEquivalent deep-compares the protection state of two epochs:
// lattice universe, registry contents, guard-stack
// descriptor, and every node's snapshot row (path, kind, class, ACL,
// multilevel — payloads excluded by design). Returns "" when equal.
func wireEquivalent(a, b *Epoch) string {
	wa, aerr := a.WireSnapshot()
	wb, berr := b.WireSnapshot()
	if aerr != nil || berr != nil {
		return fmt.Sprintf("snapshot encode: %v / %v", aerr, berr)
	}
	wb.Version = wa.Version
	if !reflect.DeepEqual(wa, wb) {
		for i := 0; i < len(wa.Rows) && i < len(wb.Rows); i++ {
			if wa.Rows[i] != wb.Rows[i] {
				return fmt.Sprintf("row %d: %+v vs %+v", i, wa.Rows[i], wb.Rows[i])
			}
		}
		return fmt.Sprintf("snapshots differ:\n%+v\n%+v", wa, wb)
	}
	return ""
}

// wirePrimary builds a primary with tree, registry, groups, and a
// multilevel directory — every wire feature in one fixture.
func wirePrimary(t testing.TB) (*fixture, *principal.Registry) {
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
	assertMirrorDecides(t, pe, m)
}

// TestWireDeltaSequence tracks the primary through one mutation of
// every shard, applying the delta's frames after each and
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
		assertMirrorDecides(t, next, m)
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
	step("stack republish", func() error { f.srv.PublishStack(f.srv.Current().Stack()); return nil })
	step("class change", func() error {
		ultra := f.lat.MustClass("ultra", "dept-3")
		return f.srv.SetClassUnchecked("/svc/home", ultra)
	})
}

// TestRegistryDeltaCarriesWhatMoved: a registry transition's delta
// lists exactly the principals it registered and the groups whose
// member lists it changed — one group for a one-member toggle, whatever
// the registry's size, and only the new group when one is added.
func TestRegistryDeltaCarriesWhatMoved(t *testing.T) {
	f, reg := wirePrimary(t)
	for _, g := range []string{"ops", "qa"} {
		if _, err := reg.Apply(principal.AddGroup(g), principal.AddMember(g, "bob")); err != nil {
			t.Fatal(err)
		}
	}
	prev := f.srv.Current()
	step := func(what string, wantPrincipals, wantGroups string, edits ...principal.Edit) {
		t.Helper()
		if _, err := reg.Apply(edits...); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		next := f.srv.Current()
		d, err := DiffEpochs(prev, next)
		if err != nil {
			t.Fatalf("%s: diff: %v", what, err)
		}
		if got := fmt.Sprint(d.Principals); got != wantPrincipals {
			t.Errorf("%s: delta principals %s, want %s", what, got, wantPrincipals)
		}
		if got := fmt.Sprint(d.Groups); got != wantGroups {
			t.Errorf("%s: delta groups %s, want %s", what, got, wantGroups)
		}
		prev = next
	}
	step("one-member toggle", "[]", "[{eng [alice bob]}]", principal.AddMember("eng", "bob"))
	step("one-member revoke", "[]", "[{ops []}]", principal.RemoveMember("ops", "bob"))
	step("new principal", "[{carol organization:{dept-1}}]", "[]", principal.AddPrincipal("carol", f.org))
	step("new group", "[]", "[{sec []}]", principal.AddGroup("sec"))
	step("subgroup edge", "[]", "[{qa [@sec bob]}]", principal.AddMember("qa", "sec"))
}

// FuzzEpochDeltaCodec drives a random mutation script against a
// primary, derives the delta for every transition, round-trips it
// through its frames, applies it to a mirror through the production
// registry replay, and requires the mirror to equal the
// primary's successor epoch — the replication soundness claim,
// fuzzed. Each script byte selects one mutation; payload bytes are
// folded into names so scripts explore bind/delete collisions. The
// registry ops cover every path a scoped registry transition takes:
// member toggles, subgroup edges, enrolling a principal the script
// registered, and an ACL naming a principal before it registers. Both sides' compiled views must match a
// from-scratch compile at every step.
func FuzzEpochDeltaCodec(f *testing.F) {
	f.Add([]byte("ab"))
	f.Add([]byte("nnd"))
	f.Add([]byte("lcpgr"))
	f.Add([]byte("anbndlcpgrtna"))
	f.Add([]byte{0xff, 0x00, 'n', 'd', 'd', 'n'})
	f.Add([]byte{10, 5, 9, 8, 6, 9, 8, 10, 5, 0, 9})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 48 {
			script = script[:48]
		}
		fx, reg := wirePrimary(t)
		m := newMirror(t, fx.srv)
		prev := fx.srv.Current()
		open := acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List))
		var bound, added []string
		seq := 0
		for i, op := range script {
			var err error
			switch op % 11 {
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
				name := fmt.Sprintf("p%d", len(added))
				added = append(added, name)
				_, err = reg.Apply(principal.AddPrincipal(name, fx.bot))
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
			case 7: // stack-only publication (reuses the compiled view)
				fx.srv.PublishStack(fx.srv.Current().Stack())
			case 8: // subgroup edge eng ⊇ ops, toggled; creating ops is part of the first add
				if members, _ := reg.Members("eng"); slices.Contains(members, "@ops") {
					_, err = reg.Apply(principal.RemoveMember("eng", "ops"))
				} else if reg.Freeze().HasGroup("ops") {
					_, err = reg.Apply(principal.AddMember("eng", "ops"))
				} else {
					_, err = reg.Apply(principal.AddGroup("ops"), principal.AddMember("ops", "bob"), principal.AddMember("eng", "ops"))
				}
			case 9: // enrol (or drop) the principal the script registered last
				if len(added) == 0 {
					continue
				}
				name := added[len(added)-1]
				if members, _ := reg.Members("eng"); slices.Contains(members, name) {
					_, err = reg.Apply(principal.RemoveMember("eng", name))
				} else {
					_, err = reg.Apply(principal.AddMember("eng", name))
				}
			case 10: // an interior ACL naming the principal op 5 registers next
				err = fx.srv.SetACLUnchecked("/svc/home", acl.New(
					acl.Allow("root", acl.AllModes),
					acl.Allow(fmt.Sprintf("p%d", len(added)), acl.List|acl.Read),
					acl.AllowGroup("eng", acl.List),
				))
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
			assertMatchesFullRebuild(t, next)
			assertMatchesFullRebuild(t, m.srv.Current())
			if t.Failed() {
				t.Fatalf("op %d (%q): compiled view diverged from a full compile", i, op)
			}
			prev = next
		}
		assertMirrorDecides(t, prev, m)
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
	if got := f.srv.Stats().JournalRecords; got != journalCap {
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

	// A stale-style apply records its distinct kind. Carrying a stack,
	// it moves two shards in one publication: each typed counter moves
	// once.
	st0 := m.srv.Stats()
	if _, err := m.srv.ApplyReplicated(ReplicaApply{
		PrimaryVersion: f.srv.Version(),
		Kind:           "replica-stale",
		Stack:          m.srv.Current().Stack(),
	}); err != nil {
		t.Fatal(err)
	}
	recs = m.srv.Journal(1)
	if recs[0].Kind != "replica-stale" {
		t.Fatalf("stale record kind=%q, want replica-stale", recs[0].Kind)
	}
	if got := strings.Join(recs[0].Shards, "+"); got != "names+stack" {
		t.Fatalf("stale record shards=%s, want names+stack", got)
	}
	st := m.srv.Stats()
	if st.Publishes != st0.Publishes+1 || st.NameTransitions != st0.NameTransitions+1 ||
		st.StackTransitions != st0.StackTransitions+1 {
		t.Fatalf("replicated apply with a stack: before %+v after %+v", st0, st)
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
