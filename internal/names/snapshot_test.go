package names

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"secext/internal/acl"
	"secext/internal/decision"
	"secext/internal/lattice"
	"secext/internal/monitor"
	"secext/internal/telemetry"
)

// TestWalkDeterministic: Walk must visit children in lexicographic name
// order, so two walks of the same tree produce identical sequences.
func TestWalkDeterministic(t *testing.T) {
	f := newFixture(t)
	open := acl.New(acl.AllowEveryone(acl.AllModes))
	// Bind in non-sorted order on purpose.
	for _, name := range []string{"zeta", "alpha", "mu", "beta"} {
		if _, err := f.srv.BindUnchecked("/", BindSpec{Name: name, Kind: KindDomain, ACL: open, Class: f.bot}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"y", "x"} {
		if _, err := f.srv.BindUnchecked("/mu", BindSpec{Name: name, Kind: KindFile, ACL: open, Class: f.bot}); err != nil {
			t.Fatal(err)
		}
	}
	walk := func() []string {
		var out []string
		f.srv.Walk(func(p string, n *Node) { out = append(out, p) })
		return out
	}
	first := walk()
	want := []string{"/", "/alpha", "/beta", "/mu", "/mu/x", "/mu/y", "/zeta"}
	if strings.Join(first, " ") != strings.Join(want, " ") {
		t.Fatalf("Walk order = %v, want %v", first, want)
	}
	for i := 0; i < 10; i++ {
		if again := walk(); strings.Join(again, " ") != strings.Join(first, " ") {
			t.Fatalf("Walk not deterministic: %v vs %v", again, first)
		}
	}
}

// TestWalkReentrantCallback: Walk holds no lock while fn runs, so a
// callback may re-enter the server — reads AND mutations — without
// deadlocking, and the walk keeps observing the snapshot pinned when it
// started.
func TestWalkReentrantCallback(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	sizeBefore := f.srv.Size()
	visited := 0
	f.srv.Walk(func(p string, n *Node) {
		visited++
		// Re-enter a read: this deadlocked when Walk held the RWMutex.
		got, err := f.srv.ResolveUnchecked(p)
		if err != nil {
			t.Fatalf("Resolve(%s) from inside Walk: %v", p, err)
		}
		if got.Path() != p {
			t.Fatalf("Resolve(%s) from inside Walk returned %s", p, got.Path())
		}
		if _, err := f.srv.Resolve(f.root, f.top, p); err != nil {
			t.Fatalf("checked Resolve(%s) from inside Walk: %v", p, err)
		}
		// Re-enter a mutation: the walk must not see the new node (it
		// observes the pinned snapshot), and nothing may deadlock.
		if p == "/" {
			if _, err := f.srv.BindUnchecked("/", BindSpec{
				Name: "from-inside-walk", Kind: KindFile,
				ACL: acl.New(), Class: f.bot,
			}); err != nil {
				t.Fatalf("Bind from inside Walk: %v", err)
			}
		}
		if n.Name() == "from-inside-walk" {
			t.Fatal("Walk observed a node bound after the walk started")
		}
	})
	if visited != sizeBefore {
		t.Fatalf("visited %d nodes, want %d", visited, sizeBefore)
	}
	if _, err := f.srv.ResolveUnchecked("/from-inside-walk"); err != nil {
		t.Fatalf("node bound from inside Walk not visible afterwards: %v", err)
	}
}

// TestAdminHookReentry: the admin hook runs after the writer publishes,
// with no lock held, so a hook that calls back into the server (the
// natural way to inspect what an unchecked operation did) must not
// deadlock — and must observe the post-operation state.
func TestAdminHookReentry(t *testing.T) {
	f := newFixture(t)
	var observed atomic.Int32
	f.srv.SetAdminHook(func(op, path string, err error) {
		// The hook fires for resolve-unchecked too; react only to binds
		// so the re-entrant resolve below doesn't recurse forever.
		if op != "bind-unchecked" || err != nil {
			return
		}
		n, rerr := f.srv.ResolveUnchecked(path)
		if rerr != nil {
			t.Errorf("hook: ResolveUnchecked(%s) after publish: %v", path, rerr)
			return
		}
		if n.Path() != path {
			t.Errorf("hook: resolved %s, want %s", n.Path(), path)
			return
		}
		observed.Add(1)
	})
	if _, err := f.srv.BindUnchecked("/", BindSpec{
		Name: "hooked", Kind: KindFile, ACL: acl.New(), Class: f.bot,
	}); err != nil {
		t.Fatal(err)
	}
	if observed.Load() != 1 {
		t.Fatalf("hook observed %d binds, want 1", observed.Load())
	}
}

// TestSnapshotPinning: a pinned snapshot is immutable — mutations
// publish successors with strictly increasing versions and never touch
// pinned state.
func TestSnapshotPinning(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	grant := acl.New(acl.Allow("alice", acl.Read), acl.AllowEveryone(acl.List))
	if err := f.srv.SetACLUnchecked("/svc/fs/read", grant); err != nil {
		t.Fatal(err)
	}

	sn := f.srv.Current()
	v0 := sn.Version()
	pubs0 := f.srv.Publishes()

	// A decision computed against the pinned snapshot grants.
	if _, err := f.srv.CheckAccessIn(sn, subj("alice"), f.bot, "/svc/fs/read", acl.Read); err != nil {
		t.Fatalf("pinned check before revocation: %v", err)
	}

	// Revoke, rebind, rename — the world moves on.
	if err := f.srv.SetACLUnchecked("/svc/fs/read", acl.New()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.BindUnchecked("/svc", BindSpec{Name: "new", Kind: KindFile, ACL: acl.New(), Class: f.bot}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.Apply(f.root, f.bot, Rename("/svc/fs", "/", "fs2")); err != nil {
		t.Fatal(err)
	}

	// The pinned snapshot still shows the old world, internally
	// consistent: old path resolves, old ACL grants, new node absent.
	if _, err := f.srv.CheckAccessIn(sn, subj("alice"), f.bot, "/svc/fs/read", acl.Read); err != nil {
		t.Fatalf("pinned snapshot's decision changed after mutations: %v", err)
	}
	if _, err := resolveIn(sn, nil, lattice.Class{}, "/svc/new", false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("pinned snapshot sees a node bound later: %v", err)
	}
	if _, err := resolveIn(sn, nil, lattice.Class{}, "/fs2/read", false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("pinned snapshot sees a post-pin rename: %v", err)
	}

	// The current snapshot shows the new world.
	cur := f.srv.Current()
	if cur.Version() <= v0 {
		t.Fatalf("version not monotonic: %d -> %d", v0, cur.Version())
	}
	if f.srv.Publishes() != pubs0+3 {
		t.Fatalf("publishes = %d, want %d", f.srv.Publishes(), pubs0+3)
	}
	if _, err := f.srv.CheckAccessIn(cur, subj("alice"), f.bot, "/fs2/read", acl.Read); !errors.Is(err, ErrDenied) {
		t.Fatalf("current snapshot must deny the revoked grant: %v", err)
	}
	if _, err := resolveIn(cur, nil, lattice.Class{}, "/fs2/read", false); err != nil {
		t.Fatalf("current snapshot missing renamed node: %v", err)
	}

	// A typed transition of a non-tree shard (here: a guard-stack
	// republish) bumps the version without changing the tree.
	v1 := f.srv.Version()
	f.srv.PublishStack(f.srv.Pipeline().Current())
	if f.srv.Version() != v1+1 {
		t.Fatalf("PublishStack: version %d -> %d, want +1", v1, f.srv.Version())
	}
}

// TestRenameConcurrentReaders is the torn-read check from the issue:
// while one goroutine renames a subtree back and forth (and throws
// structurally invalid renames at the server for good measure), readers
// resolving through the moved spine must see the wholly-old or the
// wholly-new path — within one pinned snapshot exactly one of the two
// names resolves, and it resolves to a complete, correctly-pathed node.
// Run with -race.
func TestRenameConcurrentReaders(t *testing.T) {
	f := newFixture(t)
	open := acl.New(acl.AllowEveryone(acl.AllModes))
	for _, b := range []struct {
		parent, name string
		kind         Kind
	}{
		{"/", "a", KindDomain},
		{"/", "z", KindDomain},
		{"/a", "b", KindInterface},
		{"/a/b", "c", KindMethod},
	} {
		spec := BindSpec{Name: b.name, Kind: b.kind, ACL: open, Class: f.bot}
		if b.kind == KindMethod {
			spec.Payload = "leaf"
		}
		if _, err := f.srv.BindUnchecked(b.parent, spec); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var renamer, readers sync.WaitGroup

	// The renamer moves /a/b <-> /z/b and keeps poking the structural
	// guards: moving a node under its own subtree and renaming the root
	// must fail identically under concurrency.
	renamer.Add(1)
	go func() {
		defer renamer.Done()
		at := "/a/b"
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if at == "/a/b" {
				_, err = f.srv.Apply(f.root, f.bot, Rename("/a/b", "/z", "b"))
				at = "/z/b"
			} else {
				_, err = f.srv.Apply(f.root, f.bot, Rename("/z/b", "/a", "b"))
				at = "/a/b"
			}
			if err != nil {
				t.Errorf("rename flip: %v", err)
				return
			}
			if i%16 == 0 {
				if _, err := f.srv.Apply(f.root, f.bot, Rename(at, at, "self")); !errors.Is(err, ErrBadPath) {
					t.Errorf("move-into-own-subtree: got %v, want ErrBadPath", err)
					return
				}
				if _, err := f.srv.Apply(f.root, f.bot, Rename("/", "/z", "root")); !errors.Is(err, ErrRoot) {
					t.Errorf("root rename: got %v, want ErrRoot", err)
					return
				}
			}
		}
	}()

	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 3000; i++ {
				sn := f.srv.Current()
				old, errOld := resolveIn(sn, nil, lattice.Class{}, "/a/b/c", false)
				new_, errNew := resolveIn(sn, nil, lattice.Class{}, "/z/b/c", false)
				switch {
				case errOld == nil && errNew == nil:
					t.Error("torn read: subtree visible under both names in one snapshot")
					return
				case errOld != nil && errNew != nil:
					t.Errorf("torn read: subtree visible under neither name (%v / %v)", errOld, errNew)
					return
				}
				n, path := old, "/a/b/c"
				if errOld != nil {
					n, path = new_, "/z/b/c"
				}
				if n.Path() != path || n.Payload() != "leaf" {
					t.Errorf("reader saw torn node: path %q payload %v at %q", n.Path(), n.Payload(), path)
					return
				}
			}
		}()
	}

	// Readers run bounded loops; keep the renamer flipping until every
	// reader has finished its iterations, then shut it down.
	readers.Wait()
	close(stop)
	renamer.Wait()
}

// TestStressSnapshotConsistency is the acceptance-criterion stress run:
// concurrent readers + mutators (Bind/Unbind/Rename/SetACL), every read
// decision computed against exactly one pinned snapshot version, and no
// stale grant after a revoking SetACL. Run with -race.
func TestStressSnapshotConsistency(t *testing.T) {
	f := newFixture(t)
	open := acl.New(acl.AllowEveryone(acl.AllModes))
	grant := acl.New(acl.Allow("alice", acl.Read), acl.AllowEveryone(acl.List))
	for _, b := range []struct {
		parent, name string
		kind         Kind
	}{
		{"/", "d", KindDirectory},
		{"/", "m1", KindDirectory},
		{"/", "m2", KindDirectory},
		{"/", "spare", KindDirectory},
	} {
		if _, err := f.srv.BindUnchecked(b.parent, BindSpec{Name: b.name, Kind: b.kind, ACL: open, Class: f.bot}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.srv.BindUnchecked("/d", BindSpec{Name: "f", Kind: KindFile, ACL: grant, Class: f.bot, Payload: "data"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.BindUnchecked("/m1", BindSpec{Name: "sub", Kind: KindDirectory, ACL: open, Class: f.bot}); err != nil {
		t.Fatal(err)
	}

	// revokedAt is the snapshot version observed AFTER the revoking
	// SetACL published: any decision pinned at or past it must deny.
	var revokedAt atomic.Uint64
	var wg sync.WaitGroup

	// Readers: pin one snapshot per decision and check alice's read.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deniedOnce := false
			for i := 0; i < 4000; i++ {
				sn := f.srv.Current()
				n, err := f.srv.CheckAccessIn(sn, subj("alice"), f.bot, "/d/f", acl.Read)
				switch {
				case err == nil:
					if n.Path() != "/d/f" || n.Payload() != "data" {
						t.Errorf("granted node torn: path %q payload %v", n.Path(), n.Payload())
						return
					}
					if deniedOnce {
						t.Error("grant served after a denial: revocation went backwards")
						return
					}
					if vr := revokedAt.Load(); vr != 0 && sn.Version() >= vr {
						t.Errorf("stale grant: snapshot v%d at/after revocation v%d", sn.Version(), vr)
						return
					}
				case errors.Is(err, ErrDenied):
					deniedOnce = true
				default:
					t.Errorf("reader: unexpected error %v", err)
					return
				}
			}
		}()
	}

	// Binder: churn /spare with bind/unbind pairs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1500; i++ {
			if _, err := f.srv.BindUnchecked("/spare", BindSpec{Name: "tmp", Kind: KindFile, ACL: open, Class: f.bot}); err != nil {
				t.Errorf("binder: %v", err)
				return
			}
			if _, err := f.srv.Apply(nil, lattice.Class{}, Unbind("/spare/tmp")); err != nil {
				t.Errorf("binder unbind: %v", err)
				return
			}
		}
	}()

	// Renamer: flip /m1/sub <-> /m2/sub.
	wg.Add(1)
	go func() {
		defer wg.Done()
		at := "/m1/sub"
		for i := 0; i < 1500; i++ {
			to, dst := "/m2", "/m2/sub"
			if at == "/m2/sub" {
				to, dst = "/m1", "/m1/sub"
			}
			if _, err := f.srv.Apply(f.root, f.bot, Rename(at, to, "sub")); err != nil {
				t.Errorf("renamer: %v", err)
				return
			}
			at = dst
		}
	}()

	// Revoker: let the readers warm up on grants, then revoke once.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f.srv.Publishes() < 200 { // let some churn happen first
		}
		if err := f.srv.SetACLUnchecked("/d/f", acl.New(acl.AllowEveryone(acl.List))); err != nil {
			t.Errorf("revoker: %v", err)
			return
		}
		// Version() now is >= the revocation's publish version.
		revokedAt.Store(f.srv.Version())
	}()

	wg.Wait()

	// After the dust settles: the current snapshot must deny, forever.
	if _, err := f.srv.CheckAccessIn(f.srv.Current(), subj("alice"), f.bot, "/d/f", acl.Read); !errors.Is(err, ErrDenied) {
		t.Fatalf("post-stress check: %v, want denial", err)
	}
}

// statefulGuard makes a pipeline non-cacheable (monitor.Stateful).
type statefulGuard struct{}

func (statefulGuard) Name() string                          { return "stateful-test" }
func (statefulGuard) Check(monitor.Request) monitor.Verdict { return monitor.Verdict{Allow: true} }
func (statefulGuard) Stateful() bool                        { return true }

// TestCheckAccessCachedPath exercises the decision-cache fast path
// against the snapshot clock: miss, hit, version-advance miss, cached
// denial, and the stateful-pipeline bypass.
func TestCheckAccessCachedPath(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	grant := acl.New(acl.Allow("alice", acl.Read), acl.AllowEveryone(acl.List))
	if err := f.srv.SetACLUnchecked("/svc/fs/read", grant); err != nil {
		t.Fatal(err)
	}
	cache := decision.NewCache(0)
	f.srv.SetDecisionCache(cache)
	if f.srv.DecisionCache() != cache {
		t.Fatal("DecisionCache accessor mismatch")
	}
	if f.srv.Lattice() != f.lat {
		t.Fatal("Lattice accessor mismatch")
	}
	if f.srv.Pipeline() == nil {
		t.Fatal("Pipeline accessor returned nil")
	}

	alice := subj("alice")
	if _, _, err := f.srv.CheckAccess(alice, f.bot, "/svc/fs/read", acl.Read, nil); err != nil {
		t.Fatalf("first (miss) check: %v", err)
	}
	if _, _, err := f.srv.CheckAccess(alice, f.bot, "/svc/fs/read", acl.Read, nil); err != nil {
		t.Fatalf("second (hit) check: %v", err)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Stores != 1 {
		t.Fatalf("cache stats after warm pair: %+v", st)
	}
	// Node.ACL returns a detached copy.
	n, _ := f.srv.ResolveUnchecked("/svc/fs/read")
	a := n.ACL()
	a.Add(acl.Allow("mallory", acl.AllModes))
	if _, _, err := f.srv.CheckAccess(subj("mallory"), f.bot, "/svc/fs/read", acl.Write, nil); !errors.Is(err, ErrDenied) {
		t.Fatalf("editing a returned ACL copy changed protection: %v", err)
	}

	// A mutation advances the version; the next check misses, recomputes
	// against the new snapshot, and denies.
	if err := f.srv.SetACLUnchecked("/svc/fs/read", acl.New(acl.AllowEveryone(acl.List))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.srv.CheckAccess(alice, f.bot, "/svc/fs/read", acl.Read, nil); !errors.Is(err, ErrDenied) {
		t.Fatalf("post-revocation check: %v", err)
	}
	// The denial itself is cached; a repeat is a hit with the same error.
	hits := cache.Stats().Hits
	if _, _, err := f.srv.CheckAccess(alice, f.bot, "/svc/fs/read", acl.Read, nil); !errors.Is(err, ErrDenied) {
		t.Fatalf("cached denial: %v", err)
	}
	if cache.Stats().Hits != hits+1 {
		t.Fatal("denial was not served from cache")
	}
	// Structural errors are not cached.
	stores := cache.Stats().Stores
	if _, _, err := f.srv.CheckAccess(alice, f.bot, "/svc/fs/missing", acl.Read, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("structural error: %v", err)
	}
	if cache.Stats().Stores != stores {
		t.Fatal("structural error was cached")
	}

	// A stateful guard in the pipeline bypasses the cache entirely.
	f.srv.SetPipeline(monitor.NewPipeline(statefulGuard{}))
	misses := cache.Stats().Misses
	if _, _, err := f.srv.CheckAccess(alice, f.bot, "/svc/fs/read", acl.Read, nil); err != nil {
		t.Fatalf("stateful-pipeline check: %v", err)
	}
	if cache.Stats().Misses != misses {
		t.Fatal("stateful pipeline consulted the cache")
	}
	// Snapshot.Root is the tree the walk starts from.
	if f.srv.Current().Root().Path() != "/" {
		t.Fatal("Snapshot.Root is not the root node")
	}
	// Removing the hook is a supported no-op afterwards.
	f.srv.SetAdminHook(nil)
	if _, err := f.srv.ResolveUnchecked("/svc"); err != nil {
		t.Fatal(err)
	}
}

// TestCheckAccessTraced: the traced check must return the identical
// decision and record the snapshot version, cache probe, and resolve
// spans — on the miss path, the hit path, and the uncached path.
func TestCheckAccessTraced(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	grant := acl.New(acl.Allow("alice", acl.Read), acl.AllowEveryone(acl.List))
	if err := f.srv.SetACLUnchecked("/svc/fs/read", grant); err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(telemetry.Options{Mode: telemetry.ModeFull, Kinds: []string{"data"}})
	alice := subj("alice")

	trace := func(wantErr bool) {
		t.Helper()
		tr := tel.StartTrace("data", "alice", "/svc/fs/read", "r")
		if tr == nil {
			t.Fatal("ModeFull sampler returned nil trace")
		}
		_, _, err := f.srv.CheckAccess(alice, f.bot, "/svc/fs/read", acl.Read, tr)
		tr.Finish(0, err == nil, "")
		if (err != nil) != wantErr {
			t.Fatalf("traced check err = %v, wantErr %v", err, wantErr)
		}
	}

	// Uncached (no decision cache installed): resolve + guard spans.
	trace(false)
	// Cached: miss then hit.
	f.srv.SetDecisionCache(decision.NewCache(0))
	trace(false)
	trace(false)
	// Denial on the traced path.
	if err := f.srv.SetACLUnchecked("/svc/fs/read", acl.New(acl.AllowEveryone(acl.List))); err != nil {
		t.Fatal(err)
	}
	trace(true)
	trace(true) // cached denial via the traced hit path
	// Stateful pipeline: traced cache-skip span.
	f.srv.SetPipeline(monitor.NewPipeline(statefulGuard{}))
	trace(false)

	recent := tel.Recent(0, false)
	if len(recent) != 6 {
		t.Fatalf("trace count = %d, want 6", len(recent))
	}
	// Every trace carries the pinned snapshot-version span first.
	for _, tr := range recent {
		if len(tr.Spans) == 0 || tr.Spans[0].Name != "epoch" {
			t.Fatalf("trace %d missing epoch span: %+v", tr.ID, tr.Spans)
		}
	}
}
