package names

import (
	"testing"

	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/telemetry"
)

// corruptSummary is the test hook for the shadow divergence monitor: it
// replaces the compiled summary judging path with a's, making the
// freeze-time bitsets disagree with the authoritative ACL evaluation
// (every entry sharing path's ACL slot is judged by it too). Nothing in
// production can do this — epochs are immutable after publish — which
// is exactly why the monitor exists: to catch the compiler bug that
// would.
func corruptSummary(t *testing.T, ep *Epoch, path string, a *acl.ACL) {
	t.Helper()
	e, ok := ep.compiled.index.Get(path)
	if !ok {
		t.Fatalf("no compiled entry at %s", path)
	}
	ep.compiled.sums[e.slot] = a.Compile(ep.reg)
}

// tracedCheck runs srv's check as a request the telemetry sampler
// selected: with a live trace, which routes it through the shadow
// compare.
func tracedCheck(srv *Server, sub acl.Subject, class lattice.Class, path string, modes acl.Mode) error {
	tel := telemetry.New(telemetry.Options{Mode: telemetry.ModeFull, Kinds: []string{"data"}})
	tr := tel.StartTrace("data", sub.SubjectName(), path, modes.String())
	_, _, err := srv.CheckAccess(sub, class, path, modes, tr)
	tr.Finish(0, err == nil, "")
	return err
}

// TestShadowDivergenceDetectsCorruption is the monitor's acceptance
// test: corrupt a compiled summary, route checks through the traced
// (shadow-compared) path, and the divergence counter fires within the
// sampling window — while the walk's verdict is still what the caller
// gets. Both directions count: a corrupted allow of what the walk
// denies (the caller still gets the denial, fail closed), and a
// corrupted denial of what the walk allows.
func TestShadowDivergenceDetectsCorruption(t *testing.T) {
	cf := newCompiledFixture(t)
	ep := cf.srv.Current()
	bob := subj("bob")
	const path = "/svc/fs/read"

	// Sanity: the walk denies bob read (everyone holds list only), and
	// the honest fast path agrees by not deciding.
	if _, err := checkAccessIn(walkOnly(ep), bob, cf.bot, path, acl.Read, nil); err == nil {
		t.Fatal("fixture grants bob read; the corruption would be invisible")
	}
	if _, err, decided := ep.fastCheck(bob, cf.bot, path, acl.Read); !decided || err == nil {
		t.Fatalf("honest compiled view: decided %v, err %v; want the walk's denial", decided, err)
	}

	// An honest shadow comparison counts the check, not a divergence.
	if err := tracedCheck(cf.srv, bob, cf.bot, path, acl.Read); err == nil {
		t.Fatal("traced check allowed bob read")
	}
	st := cf.srv.Stats()
	sc, dv := st.ShadowChecks, st.Divergences
	if sc == 0 {
		t.Fatal("shadow monitor did not run on the traced path")
	}
	if dv != 0 {
		t.Fatalf("divergence on an honest epoch: %d", dv)
	}

	corruptSummary(t, ep, path, acl.New(acl.AllowEveryone(acl.AllModes)))
	if _, err, decided := ep.fastCheck(bob, cf.bot, path, acl.Read); !decided || err != nil {
		t.Fatal("corruption did not flip the fast check; test is vacuous")
	}

	// The corrupted allow must surface as a divergence on the next
	// shadowed check — and must NOT leak into the verdict.
	carol := subj("carol") // distinct subject: the denial above is cached for bob
	if err := tracedCheck(cf.srv, carol, cf.bot, path, acl.Read); err == nil {
		t.Fatal("divergence leaked: corrupted compiled allow was enforced")
	}
	st = cf.srv.Stats()
	sc2, dv2 := st.ShadowChecks, st.Divergences
	if sc2 <= sc {
		t.Fatalf("shadow checks did not advance: %d -> %d", sc, sc2)
	}
	if dv2 != 1 {
		t.Fatalf("divergences = %d after corruption, want 1", dv2)
	}
	// A nil trace is the untraced path: the compiled answer is served
	// (here, the corrupted allow) and the monitor does not run.
	if _, _, err := cf.srv.CheckAccess(carol, cf.bot, path, acl.Read, nil); err != nil {
		t.Fatalf("untraced check: %v; want the compiled path's answer", err)
	}
	if st := cf.srv.Stats(); st.ShadowChecks != sc2 || st.Divergences != dv2 {
		t.Fatalf("an untraced check moved the monitor: %d checks, %d divergences", st.ShadowChecks, st.Divergences)
	}

	// The other direction: an empty summary makes the compiled path deny
	// root, whom the walk allows. The caller gets the walk's allow.
	root := subj("root")
	corruptSummary(t, ep, path, acl.New())
	if _, err, decided := ep.fastCheck(root, cf.bot, path, acl.Read); !decided || err == nil {
		t.Fatalf("deny corruption did not flip the fast check (decided %v, err %v); test is vacuous", decided, err)
	}
	if err := tracedCheck(cf.srv, root, cf.bot, path, acl.Read); err != nil {
		t.Fatalf("divergence leaked: corrupted compiled denial was enforced: %v", err)
	}
	if dv3 := cf.srv.Stats().Divergences; dv3 != 2 {
		t.Fatalf("divergences = %d after a corrupted denial, want 2", dv3)
	}

	// Both deny root a write at the top class, the walk for the MAC
	// write-down and the compiled path for the emptied summary: a denial
	// with other text is a divergence too.
	_, ferr, _ := ep.fastCheck(root, cf.top, path, acl.Write)
	_, werr := checkAccessIn(walkOnly(ep), root, cf.top, path, acl.Write, nil)
	if ferr == nil || werr == nil || ferr.Error() == werr.Error() {
		t.Fatalf("compiled %v, walk %v; want two denials with different text", ferr, werr)
	}
	if err := tracedCheck(cf.srv, root, cf.top, path, acl.Write); err == nil || err.Error() != werr.Error() {
		t.Fatalf("traced check returned %v, want the walk's %v", err, werr)
	}
	if dv4 := cf.srv.Stats().Divergences; dv4 != 3 {
		t.Fatalf("divergences = %d after a denial with other text, want 3", dv4)
	}
}

// TestShadowMonitorSkipsUncompiled: without a compiled view there is
// nothing to compare, and the counters stay untouched.
func TestShadowMonitorSkipsUncompiled(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	if err := tracedCheck(f.srv, subj("nobody"), f.bot, "/svc/fs/read", acl.Read); err == nil {
		t.Fatal("unexpected allow")
	}
	if st := f.srv.Stats(); st.ShadowChecks != 0 || st.Divergences != 0 {
		t.Fatalf("counters (%d, %d) on an uncompiled server", st.ShadowChecks, st.Divergences)
	}
}
