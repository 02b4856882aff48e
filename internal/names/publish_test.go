package names

import (
	"fmt"
	"sync"
	"testing"

	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/principal"
	"secext/internal/telemetry"
)

// attachReg wires a registry with alice and a group into the fixture
// server, for tests that drive the registry's publish hook.
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

// TestStalePublishRegistryPublishesNothing: a PublishRegistry carrying
// a view no newer than the epoch's registry leaves the epoch alone — no
// publication, no version bump (which would empty the decision cache and
// ship an empty delta to every replica), and the registry shard never
// moves backwards.
func TestStalePublishRegistryPublishesNothing(t *testing.T) {
	f := newFixture(t)
	reg := attachReg(t, f)
	stale := reg.Freeze()
	if _, err := reg.Apply(principal.AddMember("ops", "alice")); err != nil {
		t.Fatal(err)
	}
	pubs, v := f.srv.Publishes(), f.srv.Version()
	for _, view := range []*principal.Frozen{stale, reg.Freeze()} {
		if got := f.srv.PublishRegistry(view); got != v {
			t.Fatalf("PublishRegistry(v%d) = %d, want current version %d", view.Version(), got, v)
		}
	}
	if f.srv.Publishes() != pubs || f.srv.Version() != v {
		t.Fatalf("stale PublishRegistry published: publishes %d -> %d, version %d -> %d",
			pubs, f.srv.Publishes(), v, f.srv.Version())
	}
	if f.srv.Current().Registry() != reg.Freeze() {
		t.Fatal("registry shard moved backwards")
	}
}

// TestStatsDuringFlushes is the -race proof for telemetry scrapes:
// Stats and Journal read the publication counters, the histograms, the
// journal ring, the intern tables and the current epoch's compiled view
// and footprint while writers publish, and successive scrapes never see
// the epoch or a publication counter move backwards.
func TestStatsDuringFlushes(t *testing.T) {
	cf := newCompiledFixture(t)
	a := acl.New(acl.AllowEveryone(acl.List | acl.Read))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				spec := BindSpec{Name: fmt.Sprintf("w%d-%d", w, i), Kind: KindFile, ACL: a, Class: cf.bot}
				if _, err := cf.srv.Apply(nil, lattice.Class{}, Bind("/svc", spec)); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var prev telemetry.NamesStats
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		st := cf.srv.Stats()
		if st.Version < prev.Version || st.Publishes < prev.Publishes || st.NameTransitions < prev.NameTransitions ||
			st.FlushLatency.Count < prev.FlushLatency.Count || st.Footprint.EpochVersion < prev.Footprint.EpochVersion {
			t.Fatalf("scrape went backwards: %+v after %+v", st, prev)
		}
		if recs := cf.srv.Journal(4); len(recs) == 0 || recs[0].Version == 0 {
			t.Fatalf("journal snapshot %+v", recs)
		}
		prev = st
	}
	if st := cf.srv.Stats(); st.Footprint.Nodes != cf.srv.Size() || st.Entries == 0 {
		t.Fatalf("final scrape: %d footprint nodes for %d, %d compiled entries", st.Footprint.Nodes, cf.srv.Size(), st.Entries)
	}
}

// TestConcurrentChurnInvariants hammers the publisher from concurrent
// mutators and checks the accounting invariants: every successful
// mutating call is exactly one publication, the version advances once
// per publication, the versions the calls return are pairwise distinct,
// and the final epoch reflects the final shard states (no lost
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

	const workers = 4
	const iters = 50
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		versions = make(map[uint64]bool)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var v uint64
				var err error
				switch (w + i) % 3 {
				case 0:
					v, err = reg.Apply(principal.AddMember("ops", "p0"))
				case 1:
					// May race to not-found: a failed call publishes
					// nothing and is not counted.
					if v, err = reg.Apply(principal.RemoveMember("ops", "p0")); err != nil {
						continue
					}
				case 2:
					v, err = f.srv.Apply(nil, lattice.Class{}, SetACL("/svc/fs/read", acl.New(acl.Allow(fmt.Sprintf("w%d", w), acl.Read))))
				}
				if err != nil {
					t.Error(err)
					continue
				}
				mu.Lock()
				if versions[v] {
					t.Errorf("two mutating calls returned version %d", v)
				}
				versions[v] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	pubs := f.srv.Publishes() - pubs0
	if got := f.srv.Version() - v0; got != pubs {
		t.Fatalf("version advanced %d, publications %d — must match", got, pubs)
	}
	if pubs != uint64(len(versions)) {
		t.Fatalf("%d publications for %d successful mutating calls", pubs, len(versions))
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
