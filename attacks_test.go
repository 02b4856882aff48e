package secext_test

// The attack suite: every test is one concrete attack shape against the
// model, asserted to fail. Where S1-S4 show the intended behavior
// working, these show the unintended behaviors *not* working — the
// adversarial half of a security evaluation.

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secext"
	"secext/internal/lattice"
	"secext/internal/names"
	"secext/internal/principal"
	"secext/internal/remote"
	"secext/internal/replica"
)

func attackWorld(t *testing.T) *secext.World {
	t.Helper()
	w, err := secext.NewWorld(secext.WorldOptions{
		Levels:     []string{"others", "organization", "local"},
		Categories: []string{"dept-1", "dept-2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct{ name, class string }{
		{"victim", "organization:{dept-1}"},
		{"mallory", "others"},
		{"insider", "organization:{dept-1}"}, // same compartment as victim
	} {
		if _, err := w.Sys.AddPrincipal(p.name, p.class); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func ctxA(t *testing.T, w *secext.World, name string) *secext.Context {
	t.Helper()
	ctx, err := w.Sys.NewContext(name)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestAttackConfusedDeputy: mallory asks a trusted service (the file
// service, which runs with no privilege of its own) to read victim's
// file for her. The service executes at the *caller's* context, so the
// deputy cannot be confused.
func TestAttackConfusedDeputy(t *testing.T) {
	w := attackWorld(t)
	victim := ctxA(t, w, "victim")
	if _, err := w.Sys.Call(victim, "/svc/fs/create", secext.FileRequest{Path: "/fs/v-secret"}); err != nil {
		t.Fatal(err)
	}
	mallory := ctxA(t, w, "mallory")
	if _, err := w.Sys.Call(mallory, "/svc/fs/read", secext.FileRequest{Path: "/fs/v-secret"}); !secext.IsDenied(err) {
		t.Fatalf("deputy read succeeded: %v", err)
	}
}

// TestAttackCapabilityOutlivesRevocation: an extension links a
// capability, the right is revoked, and under full mediation (the
// default) the stale capability is dead. Only the explicit
// TrustLinkTime opt-in keeps it alive, and Revalidate closes even that.
func TestAttackCapabilityOutlivesRevocation(t *testing.T) {
	w := attackWorld(t)
	tok, err := w.Sys.Registry().IssueToken("insider")
	if err != nil {
		t.Fatal(err)
	}
	err = w.Sys.RegisterService(secext.ServiceSpec{
		Path: "/svc/poke",
		ACL:  secext.NewACL(secext.AllowEveryone(secext.Execute | secext.Extend)),
		Base: secext.Binding{Owner: "base", Handler: func(ctx *secext.Context, arg any) (any, error) {
			return "base", nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := w.Sys.Loader().Load(secext.Manifest{
		Name: "holder", Principal: "insider", Token: tok,
		Imports: []string{"/svc/mbuf/alloc"},
		Code:    func() secext.Extension { return &holderExt{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	cap := rec.Linkage.MustCap("/svc/mbuf/alloc")
	if _, err := cap.Invoke(rec.Context, nil); err != nil {
		t.Fatalf("pre-revocation: %v", err)
	}
	// Revoke.
	if err := w.Sys.Names().SetACLUnchecked("/svc/mbuf/alloc",
		secext.NewACL(secext.Deny("insider", secext.Execute),
			secext.AllowEveryone(secext.List))); err != nil {
		t.Fatal(err)
	}
	if _, err := cap.Invoke(rec.Context, nil); !secext.IsDenied(err) {
		t.Fatalf("stale capability lived: %v", err)
	}
	// Revalidate evicts the extension outright.
	dropped, err := w.Sys.Loader().Revalidate()
	if err != nil || len(dropped) != 1 {
		t.Fatalf("Revalidate = %v, %v", dropped, err)
	}
}

type holderExt struct{}

func (holderExt) Init(lk *secext.Linkage) (map[string]secext.Handler, error) {
	return map[string]secext.Handler{}, nil
}

// TestAttackTokenForgery: self-made and replayed-from-elsewhere tokens
// are rejected.
func TestAttackTokenForgery(t *testing.T) {
	w := attackWorld(t)
	for _, tok := range []string{
		"victim.AAAA", "victim.", "victim",
		"victim." + strings.Repeat("Q", 43),
	} {
		if _, err := w.Sys.NewContextFromToken(tok); err == nil {
			t.Errorf("forged token accepted: %q", tok)
		}
	}
	// A token from a *different* world (different HMAC secret) fails.
	other := attackWorld(t)
	foreign, err := other.Sys.Registry().IssueToken("victim")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.NewContextFromToken(foreign); err == nil {
		t.Error("cross-world token accepted")
	}
}

// TestAttackPathTricks: dotted and malformed paths cannot escape or
// alias the hierarchy.
func TestAttackPathTricks(t *testing.T) {
	w := attackWorld(t)
	mallory := ctxA(t, w, "mallory")
	for _, path := range []string{
		"/fs/../svc/journal", "/fs/./x", "//fs", "/fs//x", "fs/x", "", "/fs/x/",
	} {
		if _, err := w.Sys.Call(mallory, "/svc/fs/read", secext.FileRequest{Path: path}); err == nil {
			t.Errorf("path trick %q succeeded", path)
		}
	}
}

// TestAttackManifestOverclaim: a manifest cannot smuggle a handler for
// a service it did not declare, and cannot claim a class label that
// amplifies its principal.
func TestAttackManifestOverclaim(t *testing.T) {
	w := attackWorld(t)
	tok, _ := w.Sys.Registry().IssueToken("mallory")
	// Handler for an undeclared service.
	m := secext.Manifest{
		Name: "smuggler", Principal: "mallory", Token: tok,
		Extends: []string{}, // declares nothing
		Code:    func() secext.Extension { return &smugglerExt{} },
	}
	if _, err := w.Sys.Loader().Load(m); err == nil {
		t.Fatal("undeclared handler accepted")
	}
	// A static class above the principal clamps down, not up: mallory
	// (others) claiming local still runs at others.
	m2 := secext.Manifest{
		Name: "climber", Principal: "mallory", Token: tok,
		StaticClass: "local:{dept-1,dept-2}",
		Code:        func() secext.Extension { return &holderExt{} },
	}
	rec, err := w.Sys.Loader().Load(m2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Context.Class().String() != "others" {
		t.Errorf("manifest amplified class to %s", rec.Context.Class())
	}
}

type smugglerExt struct{}

func (smugglerExt) Init(lk *secext.Linkage) (map[string]secext.Handler, error) {
	return map[string]secext.Handler{
		"/svc/fs/read": func(ctx *secext.Context, arg any) (any, error) { return "pwned", nil },
	}, nil
}

// TestAttackLaunderThroughJournal: mallory (below) cannot use the
// append-only journal as a read channel — she can put information in
// but never get anything out.
func TestAttackLaunderThroughJournal(t *testing.T) {
	w := attackWorld(t)
	victim := ctxA(t, w, "victim")
	if _, err := w.Sys.Call(victim, "/svc/log/append", "victim's secret observation"); err != nil {
		t.Fatal(err)
	}
	mallory := ctxA(t, w, "mallory")
	if _, err := w.Sys.Call(mallory, "/svc/log/read", nil); !secext.IsDenied(err) {
		t.Fatalf("journal read-up: %v", err)
	}
}

// TestAttackEndpointSniffing: mallory cannot read, drain, or even
// measure another compartment's mailbox.
func TestAttackEndpointSniffing(t *testing.T) {
	w := attackWorld(t)
	victim := ctxA(t, w, "victim")
	if _, err := w.Sys.Call(victim, "/svc/net/open", secext.NetOpenRequest{Name: "v-inbox"}); err != nil {
		t.Fatal(err)
	}
	insider := ctxA(t, w, "insider")
	if _, err := w.Sys.Call(insider, "/svc/net/send",
		secext.NetSendRequest{Name: "v-inbox", Data: []byte("for victim only")}); err != nil {
		t.Fatal(err)
	}
	mallory := ctxA(t, w, "mallory")
	if _, err := w.Sys.Call(mallory, "/svc/net/recv", secext.NetRecvRequest{Name: "v-inbox"}); !secext.IsDenied(err) {
		t.Fatalf("mailbox drained: %v", err)
	}
	// The insider shares the compartment but is not the owner: DAC
	// still denies the read.
	if _, err := w.Sys.Call(insider, "/svc/net/recv", secext.NetRecvRequest{Name: "v-inbox"}); !secext.IsDenied(err) {
		t.Fatalf("insider drained mailbox: %v", err)
	}
}

// TestAttackAmplifyViaNestedDerive: no chain of derivations, with or
// without static classes, ever exceeds the root context's class.
func TestAttackAmplifyViaNestedDerive(t *testing.T) {
	w := attackWorld(t)
	root := ctxA(t, w, "mallory")
	top, _ := w.Sys.Lattice().Top()
	ctx := root
	for i := 0; i < 10; i++ {
		child, err := ctx.Derive("/svc/x", top) // try to climb every step
		if err != nil {
			t.Fatal(err)
		}
		if !root.Class().Dominates(child.Class()) {
			t.Fatalf("derivation %d amplified: %s", i, child.Class())
		}
		ctx = child
	}
}

// TestAttackShadowService: mallory cannot bind her own node over an
// existing service name, nor create look-alike services in protected
// domains.
func TestAttackShadowService(t *testing.T) {
	w := attackWorld(t)
	mallory := ctxA(t, w, "mallory")
	bot, _ := w.Sys.Lattice().Bottom()
	// Overwrite an existing name: structural ErrExists even before
	// access is considered (and access would deny anyway).
	if _, err := w.Sys.Apply(mallory, names.Bind("/svc/fs", secext.BindSpec{
		Name: "read", Kind: secext.KindMethod, Class: bot,
	})); err == nil {
		t.Fatal("service name shadowed")
	}
	// Create a new name in the service domain: /svc allows nobody
	// write.
	if _, err := w.Sys.Apply(mallory, names.Bind("/svc", secext.BindSpec{
		Name: "fs2", Kind: secext.KindInterface, Class: bot,
	})); !secext.IsDenied(err) {
		t.Fatalf("look-alike interface created: %v", err)
	}
}

// TestAttackAuditTampering: subjects cannot silence the audit log
// through any mediated interface — there simply is none; the log is
// reachable only through the System value the host holds.
func TestAttackAuditTampering(t *testing.T) {
	w := attackWorld(t)
	mallory := ctxA(t, w, "mallory")
	// The journal is not the audit log; there is no name-space node for
	// the audit log to attack.
	if _, err := w.Sys.Names().ResolveUnchecked("/svc/audit"); err == nil {
		t.Skip("audit exposed in the name space; revisit this test")
	}
	before := w.Sys.Audit().Stats().Total
	_, _ = w.Sys.Call(mallory, "/svc/fs/read", secext.FileRequest{Path: "/fs/nope"})
	if w.Sys.Audit().Stats().Total <= before {
		t.Error("denied call left no audit trace")
	}
}

// TestAttackCachedGrantOutlivesRevocation: the decision cache memoizes
// granted verdicts, so an attacker who held a right hammers the same
// check after revocation, hoping the fast path serves the stale grant.
// Generation invalidation defeats it: every protection-state mutation
// (group membership, ACL edit, relabel) bumps the generation, so the
// very next check after the revocation recomputes and denies.
func TestAttackCachedGrantOutlivesRevocation(t *testing.T) {
	w := attackWorld(t)
	reg := w.Sys.Registry()
	if _, err := reg.Apply(principal.AddGroup("project")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Apply(principal.AddMember("project", "insider")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.CreateNode(secext.NodeSpec{
		Path: "/fs/plans", Kind: secext.KindFile,
		ACL:   secext.NewACL(secext.AllowGroup("project", secext.Read)),
		Class: w.Sys.Lattice().MustClass("organization", "dept-1"),
	}); err != nil {
		t.Fatal(err)
	}
	insider := ctxA(t, w, "insider")

	// Warm the cache: repeated checks are served from the fast path.
	for i := 0; i < 3; i++ {
		if _, err := w.Sys.CheckData(insider, "/fs/plans", secext.Read); err != nil {
			t.Fatalf("check %d while entitled: %v", i, err)
		}
	}

	// Revocation #1: insider is dropped from the project group.
	if _, err := reg.Apply(principal.RemoveMember("project", "insider")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.CheckData(insider, "/fs/plans", secext.Read); !secext.IsDenied(err) {
		t.Fatalf("cached grant outlived group removal: %v", err)
	}

	// Re-grant directly, warm again, then revoke by ACL edit.
	if err := w.Sys.Names().SetACLUnchecked("/fs/plans",
		secext.NewACL(secext.Allow("insider", secext.Read))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Sys.CheckData(insider, "/fs/plans", secext.Read); err != nil {
			t.Fatalf("re-granted check %d: %v", i, err)
		}
	}
	if err := w.Sys.Names().SetACLUnchecked("/fs/plans", secext.NewACL()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.CheckData(insider, "/fs/plans", secext.Read); !secext.IsDenied(err) {
		t.Fatalf("cached grant outlived ACL revocation: %v", err)
	}

	// Re-grant, warm, then revoke by relabeling above insider's class.
	if err := w.Sys.Names().SetACLUnchecked("/fs/plans",
		secext.NewACL(secext.Allow("insider", secext.Read))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Sys.CheckData(insider, "/fs/plans", secext.Read); err != nil {
			t.Fatalf("relabel-setup check %d: %v", i, err)
		}
	}
	if err := w.Sys.Names().SetClassUnchecked("/fs/plans",
		w.Sys.Lattice().MustClass("local", "dept-1", "dept-2")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.CheckData(insider, "/fs/plans", secext.Read); !secext.IsDenied(err) {
		t.Fatalf("cached grant outlived relabel: %v", err)
	}
}

// TestAttackStaleGrantUnderConcurrentRevocation extends the staleness
// check to the snapshot path: readers hammer the cached CheckData fast
// path while the ACL is revoked mid-flight. Every decision pins one
// published snapshot, so the instant the revoking publish lands, any
// check that starts afterwards pins a version at or past it and must
// deny — no stale grant can be served from the cache, and no reader
// ever sees the revocation "flicker" back to a grant. Run with -race.
func TestAttackStaleGrantUnderConcurrentRevocation(t *testing.T) {
	w := attackWorld(t)
	if _, err := w.Sys.CreateNode(secext.NodeSpec{
		Path: "/fs/plans", Kind: secext.KindFile,
		ACL:   secext.NewACL(secext.Allow("insider", secext.Read)),
		Class: w.Sys.Lattice().MustClass("organization", "dept-1"),
	}); err != nil {
		t.Fatal(err)
	}
	insider := ctxA(t, w, "insider")
	ns := w.Sys.Names()

	// revokedAt is the snapshot version observed after the revoking
	// publish; 0 until the revocation lands.
	var revokedAt atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deniedOnce := false
			for i := 0; i < 5000; i++ {
				vr := revokedAt.Load() // read BEFORE the check starts
				_, err := w.Sys.CheckData(insider, "/fs/plans", secext.Read)
				switch {
				case err == nil:
					if deniedOnce {
						t.Error("grant served after a denial: revocation flickered")
						return
					}
					if vr != 0 {
						t.Errorf("stale grant: check started after revocation (v%d) still granted", vr)
						return
					}
				case secext.IsDenied(err):
					deniedOnce = true
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Let readers warm the cache, then revoke once.
		for i := 0; i < 50; i++ {
			runtime.Gosched()
		}
		if err := ns.SetACLUnchecked("/fs/plans", secext.NewACL()); err != nil {
			t.Errorf("revoke: %v", err)
			return
		}
		revokedAt.Store(ns.Version())
	}()
	wg.Wait()

	if _, err := w.Sys.CheckData(insider, "/fs/plans", secext.Read); !secext.IsDenied(err) {
		t.Fatalf("post-revocation check: %v, want denial", err)
	}
}

// TestAttackStaleGrantUnderConcurrentGroupRevocation is the registry
// form of the staleness attack: insider holds access only through a
// group, and the group membership is revoked while readers hammer the
// cached fast path. Membership is policy state bundled in the epoch, so
// the revoking RemoveMember publishes a new epoch before returning —
// any check that starts afterwards pins an epoch at or past the
// revocation and must judge the group ACL against the revoked
// membership. No stale grant, no flicker. Run with -race.
func TestAttackStaleGrantUnderConcurrentGroupRevocation(t *testing.T) {
	w := attackWorld(t)
	reg := w.Sys.Registry()
	if _, err := reg.Apply(principal.AddGroup("project")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Apply(principal.AddMember("project", "insider")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.CreateNode(secext.NodeSpec{
		Path: "/fs/plans", Kind: secext.KindFile,
		ACL:   secext.NewACL(secext.AllowGroup("project", secext.Read)),
		Class: w.Sys.Lattice().MustClass("organization", "dept-1"),
	}); err != nil {
		t.Fatal(err)
	}
	insider := ctxA(t, w, "insider")
	ns := w.Sys.Names()

	// revokedAt is the epoch version observed after the revoking
	// publish; 0 until the revocation lands.
	var revokedAt atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deniedOnce := false
			for i := 0; i < 5000; i++ {
				vr := revokedAt.Load() // read BEFORE the check starts
				_, err := w.Sys.CheckData(insider, "/fs/plans", secext.Read)
				switch {
				case err == nil:
					if deniedOnce {
						t.Error("grant served after a denial: membership revocation flickered")
						return
					}
					if vr != 0 {
						t.Errorf("stale grant: check started after revocation (v%d) still granted", vr)
						return
					}
				case secext.IsDenied(err):
					deniedOnce = true
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Let readers warm the cache, then revoke the membership once.
		for i := 0; i < 50; i++ {
			runtime.Gosched()
		}
		if _, err := reg.Apply(principal.RemoveMember("project", "insider")); err != nil {
			t.Errorf("revoke membership: %v", err)
			return
		}
		revokedAt.Store(ns.Version())
	}()
	wg.Wait()

	if _, err := w.Sys.CheckData(insider, "/fs/plans", secext.Read); !secext.IsDenied(err) {
		t.Fatalf("post-revocation check: %v, want denial", err)
	}
}

// TestAttackBatchedRevocationNotDelayed attacks the write-combining
// epoch publisher's ordering contract: with concurrent mutators forcing
// the revocation to ride a batch, the version RemoveMemberAt returns to
// the revoker must already enforce the revocation — any reader that
// pins an epoch at or past that version and still gets a grant has
// found a window where batching delayed enforcement, not just
// publication. Run with -race.
func TestAttackBatchedRevocationNotDelayed(t *testing.T) {
	w := attackWorld(t)
	reg := w.Sys.Registry()
	ns := w.Sys.Names()
	if _, err := reg.Apply(principal.AddGroup("project")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Apply(principal.AddGroup("noise")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Apply(principal.AddMember("project", "insider")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.CreateNode(secext.NodeSpec{
		Path: "/fs/plans", Kind: secext.KindFile,
		ACL:   secext.NewACL(secext.AllowGroup("project", secext.Read)),
		Class: w.Sys.Lattice().MustClass("organization", "dept-1"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.CreateNode(secext.NodeSpec{
		Path: "/fs/churn", Kind: secext.KindFile,
		ACL:   secext.NewACL(secext.Allow("victim", secext.Read)),
		Class: w.Sys.Lattice().MustClass("organization", "dept-1"),
	}); err != nil {
		t.Fatal(err)
	}
	insider := ctxA(t, w, "insider")

	// revokedAt is the epoch version RemoveMemberAt returned; 0 until
	// the revocation lands.
	var revokedAt atomic.Uint64
	stop := make(chan struct{})
	var wg, wgNoise sync.WaitGroup

	// Noise mutators keep the batched publisher busy on both the
	// registry and name-tree shards, so the revocation coalesces with
	// unrelated mutations instead of publishing alone. They run until
	// the readers and the revoker are done (their own WaitGroup).
	for m := 0; m < 2; m++ {
		wgNoise.Add(1)
		go func(m int) {
			defer wgNoise.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if m == 0 {
					reg.Apply(principal.AddMember("noise", "mallory"))
					reg.Apply(principal.RemoveMember("noise", "mallory"))
				} else {
					ns.SetACLUnchecked("/fs/churn",
						secext.NewACL(secext.Allow("victim", secext.Read)))
				}
			}
		}(m)
	}

	// Readers: pin an epoch, then check. If the pinned epoch is at or
	// past the version returned to the revoker, the check must deny —
	// the contract says no reader observes epoch >= that version
	// without the revocation applied.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				ep := ns.Current() // pin BEFORE the check starts
				_, err := w.Sys.CheckData(insider, "/fs/plans", secext.Read)
				vr := revokedAt.Load()
				switch {
				case err == nil:
					if vr != 0 && ep.Version() >= vr {
						t.Errorf("stale grant: pinned epoch v%d >= revocation v%d but check granted", ep.Version(), vr)
						return
					}
				case secext.IsDenied(err):
					// Denial is always acceptable post-enqueue.
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			runtime.Gosched()
		}
		v, err := reg.RemoveMemberAt("project", "insider")
		if err != nil {
			t.Errorf("revoke membership: %v", err)
			return
		}
		revokedAt.Store(v)
		// The returned version must itself already be published and
		// enforce the revocation: check synchronously at that version.
		if cur := ns.Version(); cur < v {
			t.Errorf("RemoveMemberAt returned v%d but published epoch is v%d", v, cur)
		}
		if _, err := w.Sys.CheckData(insider, "/fs/plans", secext.Read); !secext.IsDenied(err) {
			t.Errorf("check immediately after revocation returned: %v, want denial", err)
		}
	}()
	wg.Wait()
	close(stop)
	wgNoise.Wait()
	if _, err := w.Sys.CheckData(insider, "/fs/plans", secext.Read); !secext.IsDenied(err) {
		t.Fatalf("post-revocation check: %v, want denial", err)
	}
}

// TestAttackStaleCompiledSummary attacks the compiled-epoch freeze
// pipeline: every epoch carries freeze-time effective-ACL bitsets, so a
// revocation that fails to recompile the group-sensitive summary would
// keep granting from stale bits even though entry iteration denies.
// Readers race the revocation through the compiled fast path directly
// (CompiledAllows on pinned epochs — the uncached route CheckAccess
// takes on a cache miss) while noise mutators keep the revocation
// riding shared batches; any pinned epoch at or past the version
// RemoveMemberAt returned whose bitsets still grant is a stale compiled
// summary. Companion to TestAttackBatchedRevocationNotDelayed, one
// layer down. Run with -race.
func TestAttackStaleCompiledSummary(t *testing.T) {
	w := attackWorld(t)
	reg := w.Sys.Registry()
	ns := w.Sys.Names()
	for _, g := range []string{"project", "noise"} {
		if _, err := reg.Apply(principal.AddGroup(g)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Apply(principal.AddMember("project", "insider")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.CreateNode(secext.NodeSpec{
		Path: "/fs/plans", Kind: secext.KindFile,
		ACL:   secext.NewACL(secext.AllowGroup("project", secext.Read)),
		Class: w.Sys.Lattice().MustClass("organization", "dept-1"),
	}); err != nil {
		t.Fatal(err)
	}
	insider := ctxA(t, w, "insider")
	insiderP, err := reg.Principal("insider")
	if err != nil {
		t.Fatal(err)
	}
	cls := insiderP.Class()

	// Sanity: the current epoch's compiled bitsets grant through the
	// group, and the fast path decides the allow — otherwise the race
	// below would not be exercising compiled state at all.
	ep0 := ns.Current()
	if g, ok := ep0.CompiledGrants("/fs/plans", "insider"); !ok || g&secext.Read == 0 {
		t.Fatalf("compiled summary does not grant pre-revocation (mode %v, ok %v)", g, ok)
	}
	if _, decided := ep0.CompiledAllows(insiderP, cls, "/fs/plans", secext.Read); !decided {
		t.Fatal("compiled fast path undecided pre-revocation")
	}

	var revokedAt atomic.Uint64
	stop := make(chan struct{})
	var wg, wgNoise sync.WaitGroup
	for m := 0; m < 2; m++ {
		wgNoise.Add(1)
		go func(m int) {
			defer wgNoise.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if m == 0 {
					reg.Apply(principal.AddMember("noise", "mallory"))
					reg.Apply(principal.RemoveMember("noise", "mallory"))
				} else {
					ns.SetACLUnchecked("/fs/churn",
						secext.NewACL(secext.Allow("victim", secext.Read)))
				}
			}
		}(m)
	}
	if _, err := w.Sys.CreateNode(secext.NodeSpec{
		Path: "/fs/churn", Kind: secext.KindFile,
		ACL:   secext.NewACL(secext.Allow("victim", secext.Read)),
		Class: w.Sys.Lattice().MustClass("organization", "dept-1"),
	}); err != nil {
		t.Fatal(err)
	}

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				ep := ns.Current() // pin BEFORE the probe
				_, decided := ep.CompiledAllows(insiderP, cls, "/fs/plans", secext.Read)
				vr := revokedAt.Load()
				if decided && vr != 0 && ep.Version() >= vr {
					t.Errorf("stale compiled summary: pinned epoch v%d >= revocation v%d still grants",
						ep.Version(), vr)
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			runtime.Gosched()
		}
		v, err := reg.RemoveMemberAt("project", "insider")
		if err != nil {
			t.Errorf("revoke membership: %v", err)
			return
		}
		revokedAt.Store(v)
		// The very next epoch — the one the revoker's returned version
		// names — must already carry recompiled bitsets that deny.
		ep := ns.Current()
		if ep.Version() < v {
			t.Errorf("RemoveMemberAt returned v%d but published epoch is v%d", v, ep.Version())
		}
		if g, ok := ep.CompiledGrants("/fs/plans", "insider"); !ok || g&secext.Read != 0 {
			t.Errorf("compiled summary still grants at v%d (mode %v, ok %v)", ep.Version(), g, ok)
		}
		if _, decided := ep.CompiledAllows(insiderP, cls, "/fs/plans", secext.Read); decided {
			t.Errorf("compiled fast path still allows at v%d", ep.Version())
		}
	}()
	wg.Wait()
	close(stop)
	wgNoise.Wait()

	// End to end, through the monitor: denied.
	if _, err := w.Sys.CheckData(insider, "/fs/plans", secext.Read); !secext.IsDenied(err) {
		t.Fatalf("post-revocation check: %v, want denial", err)
	}
}

// TestAttackFleetRevocationBarrier is the distributed form of the
// staleness attack: the insider's grant is cached on a fleet of
// replica mediators, and the revoker wants the revocation to hold
// fleet-wide, not just on the primary. The revoking administrator
// publishes the new ACL and raises the revocation barrier; once
// Barrier returns, no replica may grant under the old epoch — checker
// goroutines hammer every replica throughout and flag any grant that
// starts after the barrier. Then the attack's second half: the stream
// to one replica is severed entirely, and the replica must fail
// closed (deny everything) once its staleness deadline passes, rather
// than serving its last-known policy forever. Run with -race.
func TestAttackFleetRevocationBarrier(t *testing.T) {
	w := attackWorld(t)
	if _, err := w.Sys.CreateNode(secext.NodeSpec{
		Path: "/fs/plans", Kind: secext.KindFile,
		ACL:   secext.NewACL(secext.Allow("insider", secext.Read)),
		Class: w.Sys.Lattice().MustClass("organization", "dept-1"),
	}); err != nil {
		t.Fatal(err)
	}
	// Replication plumbing: a replicator principal holding administrate
	// on the root, a publisher on the primary's server, two replicas.
	if _, err := w.Sys.AddPrincipal("replicator", "others"); err != nil {
		t.Fatal(err)
	}
	rootACL, err := w.Sys.Names().ACLOf("/")
	if err != nil {
		t.Fatal(err)
	}
	rootACL.Add(secext.Allow("replicator", secext.Administrate))
	if err := w.Sys.Names().SetACLUnchecked("/", rootACL); err != nil {
		t.Fatal(err)
	}
	rtok, err := w.Sys.Registry().IssueToken("replicator")
	if err != nil {
		t.Fatal(err)
	}
	insiderTok, err := w.Sys.Registry().IssueToken("insider")
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(w.Sys)
	srv.PingInterval = 25 * time.Millisecond
	pub := replica.NewPublisher(w.Sys)
	srv.SetPublisher(pub)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer func() { pub.Close(); srv.Close(); l.Close() }()

	const fleet = 2
	reps := make([]*replica.Replica, fleet)
	ctxs := make([]*secext.Context, fleet)
	for i := range reps {
		r, err := replica.Connect(replica.Options{
			Addr: l.Addr().String(), Token: rtok, StaleAfter: 250 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		reps[i] = r
		ctxs[i], err = r.System().NewContextFromToken(insiderTok)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the replica's decision cache with the doomed grant.
		if _, err := r.System().CheckData(ctxs[i], "/fs/plans", secext.Read); err != nil {
			t.Fatalf("pre-revocation grant missing on replica %d: %v", i, err)
		}
	}

	// barrierDone flips AFTER Barrier returns: any check that reads it
	// as true before starting and still gets a grant is a stale grant
	// the barrier promised could not exist.
	var barrierDone atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < fleet; i++ {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sys, ctx := reps[i].System(), ctxs[i]
				for {
					select {
					case <-stop:
						return
					default:
					}
					done := barrierDone.Load() // read BEFORE the check starts
					_, err := sys.CheckData(ctx, "/fs/plans", secext.Read)
					if err == nil && done {
						t.Errorf("replica %d granted after the revocation barrier returned", i)
						return
					}
					if err != nil && !secext.IsDenied(err) {
						t.Errorf("replica %d unexpected error: %v", i, err)
						return
					}
				}
			}(i)
		}
	}

	// The revocation: publish, then raise the fleet-wide barrier.
	v, err := w.Sys.Names().Apply(nil, lattice.Class{}, names.SetACL("/fs/plans", secext.NewACL()))
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Barrier(v, 10*time.Second); err != nil {
		t.Fatalf("revocation barrier: %v", err)
	}
	barrierDone.Store(true)
	// Let the checkers observe the post-barrier world for a while.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	for i, r := range reps {
		if _, err := r.System().CheckData(ctxs[i], "/fs/plans", secext.Read); !secext.IsDenied(err) {
			t.Fatalf("replica %d post-barrier check: %v, want denial", i, err)
		}
	}

	// Second half: sever the fleet. Every replica must fail closed —
	// not just the revoked path; everything — after its deadline.
	pub.Close()
	srv.Close()
	l.Close()
	deadline := time.Now().Add(5 * time.Second)
	for i, r := range reps {
		for !r.Stale() {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never failed closed after the stream was severed", i)
			}
			time.Sleep(time.Millisecond)
		}
		if _, err := r.System().CheckData(ctxs[i], "/fs/plans", secext.Read); !secext.IsDenied(err) {
			t.Fatalf("severed replica %d still answers: %v, want denial", i, err)
		}
		if _, err := r.System().CheckData(ctxs[i], "/svc", secext.List); !secext.IsDenied(err) {
			t.Fatalf("severed replica %d grants an unrelated path: %v, want denial", i, err)
		}
	}
}
