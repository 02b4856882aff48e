package names

import (
	"fmt"
	"sync"
	"testing"

	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/principal"
)

// attachReg wires a registry with alice and a group into the fixture
// server, for tests that drive the registry's batched publish path.
func attachReg(t *testing.T, f *fixture) *principal.Registry {
	t.Helper()
	reg := principal.NewRegistry(f.lat)
	if _, err := reg.Apply(principal.AddPrincipal("alice", f.bot)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Apply(principal.AddGroup("ops")); err != nil {
		t.Fatal(err)
	}
	f.srv.AttachRegistry(reg)
	return reg
}

// applyBind runs a single Bind edit and returns the new node as
// published, with the version it landed in.
func applyBind(s *Server, sub acl.Subject, class lattice.Class, parent string, spec BindSpec) (*Node, uint64, error) {
	v, err := s.Apply(sub, class, Bind(parent, spec))
	if err != nil {
		return nil, 0, err
	}
	n, err := resolveIn(s.Current(), nil, lattice.Class{}, Join(parent, spec.Name), false)
	return n, v, err
}

// memberEdits builds one membership edit per member of group g.
func memberEdits(edit func(group, member string) principal.Edit, g string, ms ...string) []principal.Edit {
	out := make([]principal.Edit, len(ms))
	for i, m := range ms {
		out[i] = edit(g, m)
	}
	return out
}

// TestAtVariantsReturnLandingVersion: every mutation's At-variant
// returns the epoch version the change was published in, and the
// published epoch at that version already carries the change — the
// ordering contract's per-mutation face.
func TestAtVariantsReturnLandingVersion(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)

	v0 := f.srv.Version()
	grant := acl.New(acl.Allow("alice", acl.Read), acl.AllowEveryone(acl.List))
	v1, err := f.srv.Apply(nil, lattice.Class{}, SetACL("/svc/fs/read", grant))
	if err != nil {
		t.Fatal(err)
	}
	if v1 <= v0 {
		t.Fatalf("SetACLUncheckedAt version %d not past %d", v1, v0)
	}
	ep := f.srv.Current()
	if ep.Version() < v1 {
		t.Fatalf("published epoch v%d behind returned version %d", ep.Version(), v1)
	}
	a, err := f.srv.ACLOf("/svc/fs/read")
	if err != nil || !a.Check(subj("alice"), acl.Read) {
		t.Fatalf("epoch at returned version missing the ACL change: %v", err)
	}

	n, v2, err := applyBind(f.srv, nil, lattice.Class{}, "/svc/fs", BindSpec{Name: "extra", Kind: KindFile, ACL: grant, Class: f.bot})
	if err != nil || n == nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Fatalf("BindUncheckedAt version %d not past %d", v2, v1)
	}
	if _, err := f.srv.ResolveUnchecked("/svc/fs/extra"); err != nil {
		t.Fatalf("bound node not visible at returned version: %v", err)
	}

	v3, err := f.srv.Apply(nil, lattice.Class{}, Unbind("/svc/fs/extra"))
	if err != nil {
		t.Fatal(err)
	}
	if v3 <= v2 {
		t.Fatalf("UnbindUncheckedAt version %d not past %d", v3, v2)
	}
	if _, err := f.srv.ResolveUnchecked("/svc/fs/extra"); err == nil {
		t.Fatal("unbound node still visible at returned version")
	}

	v4, err := f.srv.Apply(nil, lattice.Class{}, SetClass("/svc/fs/read", f.org))
	if err != nil {
		t.Fatal(err)
	}
	if v4 <= v3 {
		t.Fatalf("SetClassUncheckedAt version %d not past %d", v4, v3)
	}
}

// TestCheckedAtVariantsReturnVersions covers the mediated At-variants:
// the returned version lands the change, and denials return version 0
// without publishing.
func TestCheckedAtVariantsReturnVersions(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)

	pubs := f.srv.Publishes()
	n, v, err := applyBind(f.srv, f.root, f.bot, "/svc/fs", BindSpec{
		Name: "w", Kind: KindFile,
		ACL:   acl.New(acl.Allow("root", acl.AllModes)),
		Class: f.bot,
	})
	if err != nil || n == nil {
		t.Fatal(err)
	}
	if v != f.srv.Version() {
		t.Fatalf("BindAt version %d, current %d", v, f.srv.Version())
	}
	if _, err := f.srv.Apply(f.root, f.bot, SetACL("/svc/fs/w", acl.New(acl.Allow("root", acl.AllModes)))); err != nil {
		t.Fatal(err)
	}
	// Relabel up from bot as a bot subject (write up): allowed.
	if _, err := f.srv.Apply(f.root, f.bot, SetClass("/svc/fs/w", f.org)); err != nil {
		t.Fatal(err)
	}
	if v, err := f.srv.Apply(f.root, f.bot, Rename("/svc/fs/w", "/svc/fs", "w2")); err != nil || v != f.srv.Version() {
		t.Fatalf("RenameAt: v=%d err=%v", v, err)
	}
	if v, err := f.srv.Apply(f.root, f.bot, Unbind("/svc/fs/w2")); err != nil || v != f.srv.Version() {
		t.Fatalf("UnbindAt: v=%d err=%v", v, err)
	}

	// Denied mutation: version 0, nothing published.
	pubsBefore := f.srv.Publishes()
	if _, err := f.srv.Apply(subj("mallory"), f.bot, Bind("/svc/fs", BindSpec{Name: "x", Kind: KindFile, ACL: acl.New()})); err == nil {
		t.Fatal("mallory bind allowed")
	}
	if got := f.srv.Publishes(); got != pubsBefore {
		t.Fatalf("denied bind published an epoch: %d -> %d", pubsBefore, got)
	}
	_ = pubs
}

// TestSetACLsUncheckedSinglePublish: a bulk ACL install costs exactly
// one epoch publication regardless of edit count, and every edit is
// visible at the returned version.
func TestSetACLsUncheckedSinglePublish(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	open := acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List))
	var edits []Edit
	for i := 0; i < 8; i++ {
		if _, err := f.srv.BindUnchecked("/svc/fs", BindSpec{Name: fmt.Sprintf("f%d", i), Kind: KindFile, ACL: open, Class: f.bot}); err != nil {
			t.Fatal(err)
		}
		edits = append(edits, SetACL(fmt.Sprintf("/svc/fs/f%d", i), acl.New(acl.Allow("alice", acl.Read))))
	}
	pubs := f.srv.Publishes()
	v, err := f.srv.Apply(nil, lattice.Class{}, edits...)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.srv.Publishes(); got != pubs+1 {
		t.Fatalf("bulk ACL install took %d publications, want 1", got-pubs)
	}
	if v != f.srv.Version() {
		t.Fatalf("returned version %d, current %d", v, f.srv.Version())
	}
	for i := range edits {
		a, err := f.srv.ACLOf(edits[i].Path())
		if err != nil || !a.Check(subj("alice"), acl.Read) {
			t.Fatalf("edit %d not applied: %v", i, err)
		}
	}
}

// TestSetACLsUncheckedAtomicOnError: one bad path fails the whole batch
// — no edit applies, nothing publishes.
func TestSetACLsUncheckedAtomicOnError(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	pubs := f.srv.Publishes()
	v0 := f.srv.Version()
	_, err := f.srv.Apply(nil, lattice.Class{},
		SetACL("/svc/fs/read", acl.New(acl.Allow("alice", acl.Read))),
		SetACL("/svc/fs/missing", acl.New()),
	)
	if err == nil {
		t.Fatal("batch with a missing path succeeded")
	}
	if f.srv.Publishes() != pubs || f.srv.Version() != v0 {
		t.Fatal("failed batch still published an epoch")
	}
	a, _ := f.srv.ACLOf("/svc/fs/read")
	if a.Check(subj("alice"), acl.Read) {
		t.Fatal("failed batch partially applied")
	}
}

// TestSetACLsUncheckedEmpty: the empty batch is a no-op.
func TestSetACLsUncheckedEmpty(t *testing.T) {
	f := newFixture(t)
	pubs := f.srv.Publishes()
	v, err := f.srv.Apply(nil, lattice.Class{})
	if err != nil || v != 0 {
		t.Fatalf("empty batch: v=%d err=%v", v, err)
	}
	if f.srv.Publishes() != pubs {
		t.Fatal("empty batch published an epoch")
	}
}

// TestRegistryBulkOpSinglePublish is the regression for the per-edit
// publication bug: a bulk membership change on an attached registry
// must cost one freeze and one epoch publication, not one per member.
func TestRegistryBulkOpSinglePublish(t *testing.T) {
	f := newFixture(t)
	reg := attachReg(t, f)
	members := make([]string, 32)
	for i := range members {
		name := fmt.Sprintf("p%d", i)
		if _, err := reg.Apply(principal.AddPrincipal(name, f.bot)); err != nil {
			t.Fatal(err)
		}
		members[i] = name
	}

	pubs := f.srv.Publishes()
	v, err := reg.Apply(memberEdits(principal.AddMember, "ops", members...)...)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.srv.Publishes(); got != pubs+1 {
		t.Fatalf("bulk add of %d members took %d publications, want 1", len(members), got-pubs)
	}
	ep := f.srv.Current()
	if ep.Version() < v {
		t.Fatalf("epoch v%d behind bulk version %d", ep.Version(), v)
	}
	for _, m := range members {
		if !ep.Registry().IsMember(m, "ops") {
			t.Fatalf("member %s missing at returned version", m)
		}
	}

	pubs = f.srv.Publishes()
	if _, err := reg.Apply(memberEdits(principal.RemoveMember, "ops", members...)...); err != nil {
		t.Fatal(err)
	}
	if got := f.srv.Publishes(); got != pubs+1 {
		t.Fatalf("bulk remove took %d publications, want 1", got-pubs)
	}
	for _, m := range members {
		if f.srv.Current().Registry().IsMember(m, "ops") {
			t.Fatalf("member %s still present after bulk remove", m)
		}
	}
}

// TestStagedMutationsCoalesce drives the stage/flush split directly:
// two shard publications staged before any waiter runs must land in ONE
// epoch — same version, one publication, both typed counters bumped.
func TestStagedMutationsCoalesce(t *testing.T) {
	f := newFixture(t)
	reg := attachReg(t, f)

	pubs := f.srv.Publishes()
	tr0 := f.srv.EpochTransitions()

	// Stage a lattice universe and a registry view without flushing
	// in between: both join the same pending batch.
	if _, err := f.lat.DefineLevel("ultra"); err != nil {
		// DefineLevel waits for its own flush, so stage by hand instead.
		t.Fatal(err)
	}
	// DefineLevel above flushed its own batch (sequential callers see
	// per-mutation versions). Now exercise true coalescing through the
	// unexported staging API.
	latF := f.lat.Freeze()
	regF := reg.Freeze()
	w1 := f.srv.stageLattice(latF)
	w2 := f.srv.stageRegistry(regF)
	v1, v2 := w1(), w2()
	if v1 != v2 {
		t.Fatalf("coalesced mutations landed in different epochs: %d vs %d", v1, v2)
	}
	if got := f.srv.Publishes(); got != pubs+2 { // DefineLevel + the batch
		t.Fatalf("publications = %d, want %d", got-pubs, 2)
	}
	tr := f.srv.EpochTransitions()
	if tr.Lattice != tr0.Lattice+2 || tr.Registry != tr0.Registry+1 {
		t.Fatalf("typed transitions: before %+v after %+v", tr0, tr)
	}
	ep := f.srv.Current()
	if ep.Lattice() != latF || ep.Registry() != regF || ep.Version() != v1 {
		t.Fatal("published epoch does not carry both staged shards")
	}

	st := f.srv.BatchStats()
	if st.MaxBatch < 2 {
		t.Fatalf("max batch = %d, want >= 2", st.MaxBatch)
	}
	if st.Mutations == 0 || st.Sizes.Count == 0 || st.FlushLatency.Count == 0 {
		t.Fatalf("batch stats not populated: %+v", st)
	}
}

// TestConcurrentChurnInvariants hammers the batched publisher from
// concurrent mutators and checks the accounting invariants: the version
// advances exactly once per publication, every staged mutation is
// counted, and the final epoch reflects the final shard states (no lost
// mutations).
func TestConcurrentChurnInvariants(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	reg := attachReg(t, f)
	// Every principal the churn's ACLs will reference must exist, so the
	// final epoch passes the Consistent() cross-shard walk.
	for _, p := range []string{"root", "p0", "w0", "w1", "w2", "w3"} {
		if _, err := reg.Apply(principal.AddPrincipal(p, f.bot)); err != nil {
			t.Fatal(err)
		}
	}

	v0 := f.srv.Version()
	pubs0 := f.srv.Publishes()
	mut0 := f.srv.BatchStats().Mutations

	const workers = 4
	const iters = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 3 {
				case 0:
					if _, err := reg.AddMemberAt("ops", "p0"); err != nil {
						t.Error(err)
					}
				case 1:
					reg.RemoveMemberAt("ops", "p0") // may race to not-found; fine
				case 2:
					if _, err := f.srv.Apply(nil, lattice.Class{}, SetACL("/svc/fs/read", acl.New(acl.Allow(fmt.Sprintf("w%d", w), acl.Read)))); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	pubs := f.srv.Publishes() - pubs0
	if got := f.srv.Version() - v0; got != pubs {
		t.Fatalf("version advanced %d, publications %d — must match", got, pubs)
	}
	muts := f.srv.BatchStats().Mutations - mut0
	if pubs > muts {
		t.Fatalf("more publications (%d) than staged mutations (%d)", pubs, muts)
	}
	// No lost mutations: the published epoch carries the registry's and
	// server's final frozen state.
	ep := f.srv.Current()
	if ep.Registry().Version() != reg.Version() {
		t.Fatalf("final epoch registry v%d, registry at v%d", ep.Registry().Version(), reg.Version())
	}
	if ok, path, why := ep.Consistent(); !ok {
		t.Fatalf("final epoch inconsistent at %s: %s", path, why)
	}
}

// TestFrozenShardDeltaChain pins the FrozenShard contract: delta-built
// views anchor to the exact previous version, full rebuilds report base
// 0, and the interface is satisfied by both freezers.
func TestFrozenShardDeltaChain(t *testing.T) {
	f := newFixture(t)
	reg := attachReg(t, f)

	var shard FrozenShard = f.lat.Freeze()
	prev := shard.Version()
	if _, err := f.lat.DefineCategory("delta-cat"); err != nil {
		t.Fatal(err)
	}
	shard = f.lat.Freeze()
	if shard.DeltaBase() != prev {
		t.Fatalf("lattice delta base %d, want %d", shard.DeltaBase(), prev)
	}

	// Membership edit: incremental, anchored to the previous version.
	prevReg := reg.Version()
	if _, err := reg.AddMemberAt("ops", "alice"); err != nil {
		t.Fatal(err)
	}
	rf := reg.Freeze()
	if rf.DeltaBase() != prevReg {
		t.Fatalf("registry delta base %d, want %d", rf.DeltaBase(), prevReg)
	}

	// Structural change: full rebuild, base 0.
	if _, err := reg.Apply(principal.AddGroup("fresh")); err != nil {
		t.Fatal(err)
	}
	if got := reg.Freeze().DeltaBase(); got != 0 {
		t.Fatalf("structural change delta base %d, want 0 (full rebuild)", got)
	}
}
