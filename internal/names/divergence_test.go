package names

import (
	"testing"

	"secext/internal/acl"
)

// corruptSummary is the test hook for the shadow divergence monitor: it
// replaces the compiled summary judging path with an
// allow-everyone-everything summary, making the freeze-time bitsets
// disagree with the authoritative ACL evaluation. Nothing in production
// can do this — epochs are immutable after publish — which is exactly
// why the monitor exists: to catch the compiler bug that would.
func corruptSummary(t *testing.T, ep *Epoch, path string) {
	t.Helper()
	e, ok := ep.compiled.index.get(path)
	if !ok {
		t.Fatalf("no compiled entry at %s", path)
	}
	ep.compiled.sums[e.slot] = acl.New(acl.AllowEveryone(acl.AllModes)).Compile(ep.reg)
}

// TestShadowDivergenceDetectsCorruption is the monitor's acceptance
// test: corrupt a compiled summary, route checks through the traced
// (shadow-compared) path, and the divergence counter fires within the
// sampling window — while the walk's denial is still what the caller
// gets (fail closed).
func TestShadowDivergenceDetectsCorruption(t *testing.T) {
	cf := newCompiledFixture(t)
	ep := cf.srv.Current()
	bob := subj("bob")
	const path = "/svc/fs/read"

	// Sanity: the walk denies bob read (everyone holds list only), and
	// the honest fast path agrees by not deciding.
	if _, err := checkAccessIn(walkOnly(ep), bob, cf.bot, path, acl.Read); err == nil {
		t.Fatal("fixture grants bob read; the corruption would be invisible")
	}
	if _, decided := ep.CompiledAllows(bob, cf.bot, path, acl.Read); decided {
		t.Fatal("honest compiled view already allows bob read")
	}

	// An honest shadow comparison counts the check, not a divergence.
	if _, _, err := cf.srv.CheckAccessTracedAt(bob, cf.bot, path, acl.Read, nil); err == nil {
		t.Fatal("traced check allowed bob read")
	}
	sc, dv := cf.srv.DivergenceStats()
	if sc == 0 {
		t.Fatal("shadow monitor did not run on the traced path")
	}
	if dv != 0 {
		t.Fatalf("divergence on an honest epoch: %d", dv)
	}

	corruptSummary(t, ep, path)
	if _, decided := ep.fastCheck(bob, cf.bot, path, acl.Read); !decided {
		t.Fatal("corruption did not flip the fast check; test is vacuous")
	}

	// The corrupted allow must surface as a divergence on the next
	// shadowed check — and must NOT leak into the verdict.
	carol := subj("carol") // distinct subject: the denial above is cached for bob
	if _, _, err := cf.srv.CheckAccessTracedAt(carol, cf.bot, path, acl.Read, nil); err == nil {
		t.Fatal("divergence leaked: corrupted compiled allow was enforced")
	}
	sc2, dv2 := cf.srv.DivergenceStats()
	if sc2 <= sc {
		t.Fatalf("shadow checks did not advance: %d -> %d", sc, sc2)
	}
	if dv2 != 1 {
		t.Fatalf("divergences = %d after corruption, want 1", dv2)
	}
}

// TestShadowMonitorSkipsUncompiled: without a compiled view there is
// nothing to compare, and the counters stay untouched.
func TestShadowMonitorSkipsUncompiled(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	if _, _, err := f.srv.CheckAccessTracedAt(subj("nobody"), f.bot, "/svc/fs/read", acl.Read, nil); err == nil {
		t.Fatal("unexpected allow")
	}
	if sc, dv := f.srv.DivergenceStats(); sc != 0 || dv != 0 {
		t.Fatalf("counters (%d, %d) on an uncompiled server", sc, dv)
	}
}
