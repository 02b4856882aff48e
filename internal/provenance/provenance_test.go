package provenance

import (
	"encoding/json"
	"strings"
	"testing"

	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/names"
	"secext/internal/principal"
)

// testSubject is a principal with a class, the shape ExplainCheck
// needs (subject.Context satisfies the same interface in production).
type testSubject struct {
	name  string
	class lattice.Class
}

func (s testSubject) SubjectName() string  { return s.name }
func (s testSubject) MemberOf(string) bool { return false }
func (s testSubject) Class() lattice.Class { return s.class }

// world is a compiled name-space fixture with a nested group chain:
// ops ∋ @oncall ∋ alice. The tree has an open /svc spine, a service
// readable by ops members, and a high-classified /vault subtree.
type world struct {
	srv           *names.Server
	lat           *lattice.Lattice
	bot, org, top lattice.Class
}

func newWorld(t *testing.T) *world {
	t.Helper()
	lat, err := lattice.NewWithUniverse(
		[]string{"others", "organization", "local"},
		[]string{"dept-1", "dept-2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	top, _ := lat.Top()
	bot, _ := lat.Bottom()
	org := lat.MustClass("organization", "dept-1")
	open := acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List))
	srv := names.NewServer(lat, open.Clone(), bot)
	w := &world{srv: srv, lat: lat, bot: bot, org: org, top: top}

	svcACL := acl.New(
		acl.Allow("root", acl.AllModes),
		acl.AllowGroup("ops", acl.Read|acl.Execute),
		acl.AllowEveryone(acl.List),
	)
	wide := acl.New(acl.AllowEveryone(acl.Read | acl.Write | acl.WriteAppend | acl.List))
	for _, b := range []struct {
		parent string
		spec   names.BindSpec
	}{
		{"/", names.BindSpec{Name: "svc", Kind: names.KindDomain, ACL: open, Class: bot}},
		{"/svc", names.BindSpec{Name: "fs", Kind: names.KindInterface, ACL: open, Class: bot}},
		{"/svc/fs", names.BindSpec{Name: "read", Kind: names.KindMethod, ACL: svcACL, Class: bot, Payload: "impl"}},
		// /vault is classified high but discretionarily wide open: MAC
		// alone decides, in both directions.
		{"/", names.BindSpec{Name: "vault", Kind: names.KindDomain, ACL: wide, Class: top}},
		{"/vault", names.BindSpec{Name: "plans", Kind: names.KindFile, ACL: wide, Class: top}},
		// /low is a low sink under the open spine, for write-down tests.
		{"/", names.BindSpec{Name: "low", Kind: names.KindFile, ACL: wide, Class: bot}},
		// /svc/private names only root: nothing matches anyone else.
		{"/svc", names.BindSpec{Name: "private", Kind: names.KindFile,
			ACL: acl.New(acl.Allow("root", acl.AllModes)), Class: bot}},
	} {
		if _, err := srv.BindUnchecked(b.parent, b.spec); err != nil {
			t.Fatalf("bind %s/%s: %v", b.parent, b.spec.Name, err)
		}
	}

	reg := principal.NewRegistry(lat)
	for _, p := range []string{"root", "alice", "bob"} {
		if _, err := reg.Apply(principal.AddPrincipal(p, bot)); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []string{"ops", "oncall"} {
		if _, err := reg.Apply(principal.AddGroup(g)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Apply(principal.AddMember("ops", "oncall")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Apply(principal.AddMember("oncall", "alice")); err != nil {
		t.Fatal(err)
	}
	srv.AttachRegistry(reg)
	return w
}

func (w *world) explain(name string, class lattice.Class, path string, modes acl.Mode) *Explanation {
	return ExplainCheck(w.srv.Current(), testSubject{name, class}, path, modes)
}

// TestExplainAllowedNamesEntryAndChain: an allowed check names the
// exact group entry that granted it and the membership chain that
// connected the subject to the group — and the production fast path
// (compiled route) agrees with the instrumented working.
func TestExplainAllowedNamesEntryAndChain(t *testing.T) {
	w := newWorld(t)
	ex := w.explain("alice", w.bot, "/svc/fs/read", acl.Read)

	if !ex.Allowed || ex.Reason != "" {
		t.Fatalf("alice read denied: %q", ex.Reason)
	}
	if ex.EpochVersion != w.srv.Version() {
		t.Errorf("epoch %d, server at %d", ex.EpochVersion, w.srv.Version())
	}
	if ex.Route != "compiled" {
		t.Errorf("route = %q, want compiled (registry attached, default stack)", ex.Route)
	}
	if !ex.Resolved || len(ex.Traversal) != 3 {
		t.Fatalf("resolved=%v, %d traversal steps", ex.Resolved, len(ex.Traversal))
	}
	for _, st := range ex.Traversal {
		if !st.Visible {
			t.Errorf("ancestor %s hidden: %s", st.Path, st.Reason)
		}
	}
	var group *MatchedEntry
	for i := range ex.ACL.Matched {
		if strings.Contains(ex.ACL.Matched[i].Entry, "@ops") {
			group = &ex.ACL.Matched[i]
		}
	}
	if group == nil {
		t.Fatalf("group entry not matched: %+v", ex.ACL.Matched)
	}
	wantChain := []string{"@ops", "@oncall", "alice"}
	if len(group.Chain) != len(wantChain) {
		t.Fatalf("chain = %v, want %v", group.Chain, wantChain)
	}
	for i := range wantChain {
		if group.Chain[i] != wantChain[i] {
			t.Fatalf("chain = %v, want %v", group.Chain, wantChain)
		}
	}
	if !ex.ACL.Verdict || ex.ACL.Granted == "" {
		t.Errorf("acl report = %+v", ex.ACL)
	}
	if ex.ShortCircuit != -1 {
		t.Errorf("short-circuit at %d on an allow", ex.ShortCircuit)
	}
	for _, g := range ex.Guards {
		if !g.Allow || g.Decisive {
			t.Errorf("guard %s on an allow: %+v", g.Guard, g)
		}
	}
	if !ex.MAC.Allow || ex.MAC.Reason != "" {
		t.Errorf("mac report = %+v", ex.MAC)
	}

	out := ex.String()
	for _, want := range []string{
		"ALLOW alice read on /svc/fs/read",
		"route compiled",
		"matched: allow @ops read,execute (via @ops -> @oncall -> alice)",
		"want read => ALLOW",
		"verdict: allow",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

// TestExplainDeniedACL: a discretionary denial marks the DAC guard
// decisive and reports the fail-closed match set.
func TestExplainDeniedACL(t *testing.T) {
	w := newWorld(t)
	ex := w.explain("bob", w.bot, "/svc/fs/read", acl.Read)

	if ex.Allowed {
		t.Fatal("bob read allowed")
	}
	if ex.Route != "compiled" {
		t.Errorf("route = %q; the compiled path decides a missing grant", ex.Route)
	}
	if ex.ACL.Verdict {
		t.Errorf("acl verdict allow for bob: %+v", ex.ACL)
	}
	// Only the everyone-list entry matches bob; read is not granted.
	if len(ex.ACL.Matched) != 1 || !strings.Contains(ex.ACL.Matched[0].Entry, "allow *") {
		t.Errorf("matched = %+v", ex.ACL.Matched)
	}
	if ex.ShortCircuit < 0 || ex.Guards[ex.ShortCircuit].Guard != "dac" {
		t.Errorf("short-circuit = %d, guards = %+v", ex.ShortCircuit, ex.Guards)
	}
	if !ex.Guards[ex.ShortCircuit].Decisive {
		t.Error("short-circuit guard not marked decisive")
	}
	if out := ex.String(); !strings.Contains(out, "<- decided here") {
		t.Errorf("rendering misses the decisive marker:\n%s", out)
	}
}

// TestExplainDeniedMAC covers all three flow rules with the dominance
// comparison spelled out: read up, write down, append down.
func TestExplainDeniedMAC(t *testing.T) {
	w := newWorld(t)

	// bob (bot) reading /vault/plans (top): no read up.
	ex := w.explain("bob", w.bot, "/vault/plans", acl.Read)
	if ex.Allowed {
		t.Fatal("read up allowed")
	}
	m := ex.MAC
	if m.SubjectDominatesObject || !m.ObjectDominatesSubject {
		t.Errorf("dominance = subject %v / object %v", m.SubjectDominatesObject, m.ObjectDominatesSubject)
	}
	if m.Reason != "mac: subject does not dominate object (no read up)" {
		t.Errorf("reason = %q", m.Reason)
	}
	if m.ReadModes != "read" || m.WriteModes != "" {
		t.Errorf("flow groups = read %q, write %q", m.ReadModes, m.WriteModes)
	}
	if ex.ShortCircuit < 0 || ex.Guards[ex.ShortCircuit].Guard != "mac" {
		t.Errorf("mac not decisive: sc=%d guards=%+v", ex.ShortCircuit, ex.Guards)
	}
	out := ex.String()
	for _, want := range []string{
		"subject dominates object: false, object dominates subject: true",
		"read-up rule applies to read",
		"verdict: DENY — mac: subject does not dominate object (no read up)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}

	// root (top) writing /low (bot): no write down. The traversal into
	// /vault is not involved — /low hangs off the open root.
	ex = w.explain("root", w.top, "/low", acl.Write)
	if ex.Allowed {
		t.Fatal("write down allowed")
	}
	if ex.MAC.Reason != "mac: object does not dominate subject (no write down)" {
		t.Errorf("write-down reason = %q", ex.MAC.Reason)
	}
	if ex.MAC.WriteModes != "write" {
		t.Errorf("write group = %q", ex.MAC.WriteModes)
	}

	// root (top) appending to /low (bot): append would write down.
	ex = w.explain("root", w.top, "/low", acl.WriteAppend)
	if ex.Allowed {
		t.Fatal("append down allowed")
	}
	if ex.MAC.Reason != "mac: append would write down" {
		t.Errorf("append reason = %q", ex.MAC.Reason)
	}
	if ex.MAC.AppendModes != "write-append" {
		t.Errorf("append group = %q", ex.MAC.AppendModes)
	}
	if out := ex.String(); !strings.Contains(out, "append rule applies to write-append") {
		t.Errorf("rendering misses the append rule:\n%s", out)
	}
}

// TestExplainHiddenTraversal: a subject that cannot MAC-read an
// interior node sees the step reported HIDDEN with the monitor's
// reason, and the overall verdict is the walk's denial.
func TestExplainHiddenTraversal(t *testing.T) {
	w := newWorld(t)
	ex := w.explain("bob", w.bot, "/vault/plans", acl.List)
	if ex.Allowed {
		t.Fatal("bob sees into /vault")
	}
	var vault *TraversalStep
	for i := range ex.Traversal {
		if ex.Traversal[i].Path == "/vault" {
			vault = &ex.Traversal[i]
		}
	}
	if vault == nil {
		t.Fatalf("no /vault step in %+v", ex.Traversal)
	}
	if vault.Visible || vault.Reason == "" {
		t.Errorf("/vault step = %+v, want HIDDEN with a reason", *vault)
	}
	if out := ex.String(); !strings.Contains(out, "HIDDEN") {
		t.Errorf("rendering misses HIDDEN:\n%s", out)
	}
}

// TestExplainResolveError: a structurally unbound path reports the
// resolve failure and stops — no ACL or guard sections.
func TestExplainResolveError(t *testing.T) {
	w := newWorld(t)
	ex := w.explain("root", w.bot, "/svc/fs/nonesuch", acl.Read)
	if ex.Allowed || ex.Resolved {
		t.Fatalf("allowed=%v resolved=%v for a missing path", ex.Allowed, ex.Resolved)
	}
	if ex.ResolveError == "" || ex.ACL != nil || ex.Guards != nil {
		t.Errorf("ex = %+v, want resolve error only", ex)
	}
	if out := ex.String(); !strings.Contains(out, "resolve:") {
		t.Errorf("rendering misses the resolve section:\n%s", out)
	}
}

// TestExplainRoot: "/" has no ancestors and explain handles it.
func TestExplainRoot(t *testing.T) {
	w := newWorld(t)
	ex := w.explain("root", w.bot, "/", acl.List)
	if len(ex.Traversal) != 0 {
		t.Errorf("root has %d traversal steps", len(ex.Traversal))
	}
	if !ex.Resolved {
		t.Error("root did not resolve")
	}
}

// TestExplanationJSON: the structured tree round-trips through JSON
// with the authoritative fields intact (the /debug/explain wire form).
func TestExplanationJSON(t *testing.T) {
	w := newWorld(t)
	ex := w.explain("alice", w.bot, "/svc/fs/read", acl.Read)
	body, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	var back Explanation
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatal(err)
	}
	if back.Allowed != ex.Allowed || back.EpochVersion != ex.EpochVersion ||
		back.Route != ex.Route || len(back.Guards) != len(ex.Guards) {
		t.Errorf("round-trip lost fields: %+v vs %+v", back, ex)
	}
	if !strings.Contains(string(body), `"membership_chain"`) {
		t.Errorf("chain not serialized: %s", body)
	}
}

func TestAncestors(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"/", nil},
		{"/a", []string{"/"}},
		{"/a/b", []string{"/", "/a"}},
		{"/a/b/c", []string{"/", "/a", "/a/b"}},
	}
	for _, tc := range cases {
		got := ancestors(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("ancestors(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ancestors(%q) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}

// TestMembershipChain exercises the BFS directly: direct member,
// nested chain, no chain, and a nil registry.
func TestMembershipChain(t *testing.T) {
	w := newWorld(t)
	reg := w.srv.Current().Registry()

	got := membershipChain(reg, "alice", "oncall")
	if len(got) != 2 || got[0] != "@oncall" || got[1] != "alice" {
		t.Errorf("direct chain = %v", got)
	}
	got = membershipChain(reg, "alice", "ops")
	if len(got) != 3 || got[1] != "@oncall" {
		t.Errorf("nested chain = %v", got)
	}
	if got := membershipChain(reg, "bob", "ops"); got != nil {
		t.Errorf("chain for a non-member = %v", got)
	}
	if got := membershipChain(reg, "alice", "nonesuch"); got != nil {
		t.Errorf("chain through an unknown group = %v", got)
	}
	if got := membershipChain(nil, "alice", "ops"); got != nil {
		t.Errorf("chain with nil registry = %v", got)
	}
}

// TestStringFailClosed: the rendering of a decision where nothing
// matched says so explicitly, with the granted set empty.
func TestStringFailClosed(t *testing.T) {
	w := newWorld(t)
	// mallory is unregistered and /svc/private names only root: no
	// entry matches her at all.
	ex := w.explain("mallory", w.bot, "/svc/private", acl.Write)
	if ex.Allowed {
		t.Fatal("mallory write allowed")
	}
	if len(ex.ACL.Matched) != 0 {
		t.Errorf("matched = %+v, want none", ex.ACL.Matched)
	}
	out := ex.String()
	for _, want := range []string{
		"no entries matched the subject (fail-closed)",
		"granted none, want write => DENY",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}
