package core

import (
	"errors"
	"strings"
	"testing"

	"secext/internal/acl"
	"secext/internal/audit"
	"secext/internal/dispatch"
	"secext/internal/names"
	"secext/internal/subject"
	"secext/internal/telemetry"
)

// newSys builds the standard test system: paper §2.2 universe, a /svc
// domain with an fs interface and one read service, plus principals.
func newSys(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(Options{
		Levels:     []string{"others", "organization", "local"},
		Categories: []string{"myself", "dept-1", "dept-2", "outside"},
	})
	if err != nil {
		t.Fatal(err)
	}
	openACL := acl.New(acl.AllowEveryone(acl.List | acl.Execute))
	if _, err := s.CreateNode(NodeSpec{Path: "/svc", Kind: names.KindDomain,
		ACL: acl.New(acl.AllowEveryone(acl.List))}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateNode(NodeSpec{Path: "/svc/fs", Kind: names.KindInterface,
		ACL: acl.New(acl.AllowEveryone(acl.List))}); err != nil {
		t.Fatal(err)
	}
	err = s.RegisterService(ServiceSpec{
		Path: "/svc/fs/read",
		ACL:  openACL,
		Base: dispatch.Binding{Owner: "base", Handler: func(ctx *subject.Context, arg any) (any, error) {
			return "base-read", nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct{ name, class string }{
		{"alice", "local:{myself,dept-1,dept-2,outside}"},
		{"bob", "organization:{dept-1}"},
		{"eve", "others"},
	} {
		if _, err := s.AddPrincipal(p.name, p.class); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func ctxFor(t *testing.T, s *System, name string) *subject.Context {
	t.Helper()
	ctx, err := s.NewContext(name)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Options{}); !errors.Is(err, ErrConfig) {
		t.Errorf("no levels: got %v", err)
	}
	if _, err := NewSystem(Options{Levels: []string{"a", "a"}}); !errors.Is(err, ErrConfig) {
		t.Errorf("dup level: got %v", err)
	}
	s, err := NewSystem(Options{Levels: []string{"only"}})
	if err != nil {
		t.Fatalf("minimal system: %v", err)
	}
	if s.Lattice().NumLevels() != 1 || s.Registry() == nil || s.Names() == nil ||
		s.Dispatcher() == nil || s.Audit() == nil || s.Loader() == nil {
		t.Error("accessors broken")
	}
}

func TestCallAllowed(t *testing.T) {
	s := newSys(t)
	out, err := s.Call(ctxFor(t, s, "alice"), "/svc/fs/read", nil)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if out != "base-read" {
		t.Errorf("Call = %v", out)
	}
	st := s.Audit().Stats()
	if st.ByKind[audit.KindCall] != 1 || st.Allowed != 1 {
		t.Errorf("audit stats = %+v", st)
	}
}

func TestCallDeniedByACL(t *testing.T) {
	s := newSys(t)
	// Tighten the service: only alice may execute.
	if err := s.Names().SetACLUnchecked("/svc/fs/read",
		acl.New(acl.Allow("alice", acl.Execute))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call(ctxFor(t, s, "eve"), "/svc/fs/read", nil); !IsDenied(err) {
		t.Fatalf("eve call: got %v, want denial", err)
	}
	if _, err := s.Call(ctxFor(t, s, "alice"), "/svc/fs/read", nil); err != nil {
		t.Fatalf("alice call: %v", err)
	}
	st := s.Audit().Stats()
	if st.Denied != 1 {
		t.Errorf("denied count = %d", st.Denied)
	}
	// The denial is visible in the audit trail with a reason.
	evs := s.Audit().Recent(0)
	found := false
	for _, e := range evs {
		if !e.Allowed && e.Subject == "eve" && strings.Contains(e.Reason, "acl") {
			found = true
		}
	}
	if !found {
		t.Errorf("no audited denial with acl reason: %v", evs)
	}
}

func TestCallDeniedByMAC(t *testing.T) {
	s := newSys(t)
	// Label the service organization:{dept-1}; eve (others) cannot
	// dominate it although the ACL would let everyone execute.
	if err := s.Names().SetClassUnchecked("/svc/fs/read",
		s.Lattice().MustClass("organization", "dept-1")); err != nil {
		t.Fatal(err)
	}
	_, err := s.Call(ctxFor(t, s, "eve"), "/svc/fs/read", nil)
	if !IsDenied(err) {
		t.Fatalf("eve call: got %v, want denial", err)
	}
	if !strings.Contains(err.Error(), "mac") {
		t.Errorf("denial must cite mac: %v", err)
	}
	if _, err := s.Call(ctxFor(t, s, "bob"), "/svc/fs/read", nil); err != nil {
		t.Fatalf("bob (dept-1) call: %v", err)
	}
}

func TestExtendRequiresMode(t *testing.T) {
	s := newSys(t)
	b := dispatch.Binding{Owner: "x", Handler: func(ctx *subject.Context, arg any) (any, error) {
		return "spec", nil
	}}
	if err := s.Extend(ctxFor(t, s, "bob"), "/svc/fs/read", b); !IsDenied(err) {
		t.Fatalf("extend without mode: got %v", err)
	}
	if err := s.Names().SetACLUnchecked("/svc/fs/read",
		acl.New(acl.AllowEveryone(acl.Execute), acl.Allow("bob", acl.Extend))); err != nil {
		t.Fatal(err)
	}
	if err := s.Extend(ctxFor(t, s, "bob"), "/svc/fs/read", b); err != nil {
		t.Fatalf("authorized extend: %v", err)
	}
	// The dynamic specialization now serves callers.
	out, err := s.Call(ctxFor(t, s, "alice"), "/svc/fs/read", nil)
	if err != nil || out != "spec" {
		t.Errorf("call after extend = %v, %v", out, err)
	}
	// Retract removes it.
	if err := s.Retract("/svc/fs/read", "x"); err != nil {
		t.Fatal(err)
	}
	out, _ = s.Call(ctxFor(t, s, "alice"), "/svc/fs/read", nil)
	if out != "base-read" {
		t.Errorf("call after retract = %v", out)
	}
}

func TestCallAllMulticasts(t *testing.T) {
	s := newSys(t)
	if err := s.Names().SetACLUnchecked("/svc/fs/read",
		acl.New(acl.AllowEveryone(acl.Execute|acl.Extend))); err != nil {
		t.Fatal(err)
	}
	bob := ctxFor(t, s, "bob")
	for _, owner := range []string{"x", "y"} {
		o := owner
		if err := s.Extend(bob, "/svc/fs/read", dispatch.Binding{
			Owner: o, Handler: func(ctx *subject.Context, arg any) (any, error) {
				return "spec-" + o, nil
			}}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.CallAll(ctxFor(t, s, "alice"), "/svc/fs/read", nil)
	if err != nil {
		t.Fatalf("CallAll: %v", err)
	}
	if len(out) != 3 || out[0] != "base-read" || out[1] != "spec-x" || out[2] != "spec-y" {
		t.Errorf("CallAll = %v", out)
	}
	// Execute mode still gates the multicast.
	if err := s.Names().SetACLUnchecked("/svc/fs/read", acl.New()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CallAll(ctxFor(t, s, "alice"), "/svc/fs/read", nil); !IsDenied(err) {
		t.Errorf("unauthorized CallAll: got %v", err)
	}
}

func TestCheckImportExtendAuditedAsLink(t *testing.T) {
	s := newSys(t)
	ctx := ctxFor(t, s, "alice")
	if err := s.CheckImport(ctx, "/svc/fs/read"); err != nil {
		t.Fatalf("CheckImport: %v", err)
	}
	if err := s.CheckExtend(ctx, "/svc/fs/read"); !IsDenied(err) {
		t.Fatalf("CheckExtend without mode: got %v", err)
	}
	st := s.Audit().Stats()
	if st.ByKind[audit.KindLink] != 2 {
		t.Errorf("link events = %d, want 2", st.ByKind[audit.KindLink])
	}
}

func TestCallLinkedTrustToggle(t *testing.T) {
	s := newSys(t)
	// Deny eve at the ACL, then compare Call vs CallLinked under both
	// trust settings.
	if err := s.Names().SetACLUnchecked("/svc/fs/read",
		acl.New(acl.Allow("alice", acl.Execute))); err != nil {
		t.Fatal(err)
	}
	eve := ctxFor(t, s, "eve")
	if _, err := s.CallLinked(eve, "/svc/fs/read", nil); !IsDenied(err) {
		t.Fatalf("full mediation: got %v, want denial", err)
	}
	s.SetTrustLinkTime(true)
	if !s.TrustsLinkTime() {
		t.Error("TrustsLinkTime accessor")
	}
	// With link-time trust the (hypothetically already linked) call
	// proceeds: the check happened at link time in this mode.
	if out, err := s.CallLinked(eve, "/svc/fs/read", nil); err != nil || out != "base-read" {
		t.Errorf("trusted linked call = %v, %v", out, err)
	}
	// Call still always checks.
	if _, err := s.Call(eve, "/svc/fs/read", nil); !IsDenied(err) {
		t.Errorf("Call must always check: got %v", err)
	}
}

func TestNameOpsMediated(t *testing.T) {
	s := newSys(t)
	alice := ctxFor(t, s, "alice")
	eve := ctxFor(t, s, "eve")

	// List: /svc is listable by everyone.
	got, err := s.List(eve, "/svc")
	if err != nil || len(got) != 1 || got[0] != "fs" {
		t.Errorf("List = %v, %v", got, err)
	}

	// Resolve with visibility.
	if _, err := s.Resolve(eve, "/svc/fs/read"); err != nil {
		t.Errorf("Resolve: %v", err)
	}

	// Bind: give alice write on /svc/fs first; alice is at local
	// (top), the parent is at bottom, so MAC write fails — binding into
	// a low directory from a high subject is a write-down.
	if err := s.Names().SetACLUnchecked("/svc/fs",
		acl.New(acl.AllowEveryone(acl.List), acl.Allow("alice", acl.Write))); err != nil {
		t.Fatal(err)
	}
	_, err = s.Apply(alice, names.Bind("/svc/fs", names.BindSpec{
		Name: "write", Kind: names.KindMethod, Class: s.Lattice().MustClass("others"),
	}))
	if !IsDenied(err) {
		t.Fatalf("high subject bind into low dir: got %v", err)
	}
	// eve (bottom) with write may bind at her own class.
	if err := s.Names().SetACLUnchecked("/svc/fs",
		acl.New(acl.AllowEveryone(acl.List), acl.Allow("eve", acl.Write))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(eve, names.Bind("/svc/fs", names.BindSpec{
		Name: "write", Kind: names.KindMethod, Class: s.Lattice().MustClass("others"),
		ACL: acl.New(acl.Allow("eve", acl.Delete)),
	})); err != nil {
		t.Fatalf("eve bind: %v", err)
	}
	n, _ := s.Names().ResolveUnchecked("/svc/fs/write")
	if n.Path() != "/svc/fs/write" {
		t.Errorf("bound path = %s", n.Path())
	}

	// Unbind needs delete on node + write on parent.
	if _, err := s.Apply(eve, names.Unbind("/svc/fs/write")); err != nil {
		t.Fatalf("unbind: %v", err)
	}
	st := s.Audit().Stats()
	if st.ByKind[audit.KindName] == 0 {
		t.Error("name ops must audit")
	}
}

func TestACLAdministration(t *testing.T) {
	s := newSys(t)
	alice := ctxFor(t, s, "alice")
	eve := ctxFor(t, s, "eve")
	// Nobody has administrate yet.
	if _, err := s.Apply(eve, names.SetACL("/svc/fs/read", acl.New())); !IsDenied(err) {
		t.Fatalf("unauthorized SetACL: got %v", err)
	}
	if err := s.Names().SetACLUnchecked("/svc/fs/read",
		acl.New(acl.AllowEveryone(acl.Execute), acl.Allow("eve", acl.Administrate))); err != nil {
		t.Fatal(err)
	}
	// eve administrates: grant herself read too.
	newACL := acl.New(
		acl.AllowEveryone(acl.Execute),
		acl.Allow("eve", acl.Administrate|acl.Read),
	)
	if _, err := s.Apply(eve, names.SetACL("/svc/fs/read", newACL)); err != nil {
		t.Fatalf("SetACL: %v", err)
	}
	got, err := s.GetACL(eve, "/svc/fs/read")
	if err != nil {
		t.Fatalf("GetACL: %v", err)
	}
	if got.String() != newACL.String() {
		t.Errorf("GetACL = %v", got)
	}
	// alice without read/administrate cannot inspect.
	if _, err := s.GetACL(alice, "/svc/fs/read"); !IsDenied(err) {
		t.Errorf("GetACL unauthorized: got %v", err)
	}
	// SetClass via label.
	if _, err := s.Apply(eve, names.SetClass("/svc/fs/read", s.Lattice().MustClass("organization", "dept-1"))); err != nil {
		t.Fatalf("SetClass: %v", err)
	}
	n, _ := s.Names().ResolveUnchecked("/svc/fs/read")
	if n.Class().String() != "organization:{dept-1}" {
		t.Errorf("class = %s", n.Class())
	}
	if _, err := s.ParseClass("no-such"); err == nil {
		t.Error("bad label must fail")
	}
	st := s.Audit().Stats()
	if st.ByKind[audit.KindAdmin] == 0 {
		t.Error("admin ops must audit")
	}
}

func TestCheckData(t *testing.T) {
	s := newSys(t)
	if _, err := s.CreateNode(NodeSpec{Path: "/data", Kind: names.KindDirectory,
		ACL: acl.New(acl.AllowEveryone(acl.List))}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateNode(NodeSpec{
		Path: "/data/f", Kind: names.KindFile,
		ACL:   acl.New(acl.Allow("bob", acl.Read|acl.Write)),
		Class: s.Lattice().MustClass("organization", "dept-1"),
	}); err != nil {
		t.Fatal(err)
	}
	bob := ctxFor(t, s, "bob")
	if _, err := s.CheckData(bob, "/data/f", acl.Read); err != nil {
		t.Errorf("bob read: %v", err)
	}
	if _, err := s.CheckData(bob, "/data/f", acl.Read|acl.Write); err != nil {
		t.Errorf("bob read+write at own class: %v", err)
	}
	eve := ctxFor(t, s, "eve")
	if _, err := s.CheckData(eve, "/data/f", acl.Read); !IsDenied(err) {
		t.Errorf("eve read: got %v", err)
	}
	st := s.Audit().Stats()
	if st.ByKind[audit.KindData] != 3 {
		t.Errorf("data events = %d", st.ByKind[audit.KindData])
	}
}

func TestContextsFromTokens(t *testing.T) {
	s := newSys(t)
	tok, err := s.Registry().IssueToken("bob")
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := s.NewContextFromToken(tok)
	if err != nil || ctx.SubjectName() != "bob" {
		t.Fatalf("NewContextFromToken: %v %v", ctx, err)
	}
	if _, err := s.NewContextFromToken("junk"); err == nil {
		t.Error("bad token must fail")
	}
	if _, err := s.NewContext("ghost"); err == nil {
		t.Error("unknown principal must fail")
	}
}

func TestRegisterServiceRollback(t *testing.T) {
	s := newSys(t)
	// Duplicate path: node bind fails.
	err := s.RegisterService(ServiceSpec{
		Path: "/svc/fs/read", ACL: acl.New(),
		Base: dispatch.Binding{Owner: "b", Handler: func(ctx *subject.Context, arg any) (any, error) { return nil, nil }},
	})
	if !errors.Is(err, names.ErrExists) {
		t.Errorf("dup service: got %v", err)
	}
	// Nil handler rejected.
	err = s.RegisterService(ServiceSpec{Path: "/svc/fs/stat", ACL: acl.New()})
	if !errors.Is(err, ErrConfig) {
		t.Errorf("nil base: got %v", err)
	}
	if _, err := s.Names().ResolveUnchecked("/svc/fs/stat"); !errors.Is(err, names.ErrNotFound) {
		t.Error("failed registration must not leave a node")
	}
	// Dispatcher duplicate with fresh node path: rolls back the node.
	if err := s.Dispatcher().Register("/svc/fs/dup", dispatch.Binding{
		Owner: "pre", Handler: func(ctx *subject.Context, arg any) (any, error) { return nil, nil },
	}); err != nil {
		t.Fatal(err)
	}
	err = s.RegisterService(ServiceSpec{
		Path: "/svc/fs/dup", ACL: acl.New(),
		Base: dispatch.Binding{Owner: "b", Handler: func(ctx *subject.Context, arg any) (any, error) { return nil, nil }},
	})
	if !errors.Is(err, dispatch.ErrDuplicate) {
		t.Errorf("dispatcher dup: got %v", err)
	}
	if _, err := s.Names().ResolveUnchecked("/svc/fs/dup"); !errors.Is(err, names.ErrNotFound) {
		t.Error("node must be rolled back on dispatcher failure")
	}
}

func TestCreateNodeValidation(t *testing.T) {
	s := newSys(t)
	if _, err := s.CreateNode(NodeSpec{Path: "/"}); !errors.Is(err, names.ErrRoot) {
		t.Errorf("create root: got %v", err)
	}
	if _, err := s.CreateNode(NodeSpec{Path: "bad"}); !errors.Is(err, names.ErrBadPath) {
		t.Errorf("bad path: got %v", err)
	}
	if _, err := s.CreateNode(NodeSpec{Path: "/nope/child", Kind: names.KindObject}); !errors.Is(err, names.ErrNotFound) {
		t.Errorf("missing parent: got %v", err)
	}
}

func TestAuditDisabledAtStart(t *testing.T) {
	s, err := NewSystem(Options{Levels: []string{"l"}, DisableAudit: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Audit().Enabled() {
		t.Error("DisableAudit must start the log disabled")
	}
}

// raceEnabled is set in race builds, whose instrumentation changes
// allocation counts.
var raceEnabled bool

// TestDeniedCheckDataAllocs pins the allocation cost of a denied
// CheckData with telemetry off: the denial's reason is formatted once,
// for the audit event, and never for a trace that is not open.
func TestDeniedCheckDataAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s, err := NewSystem(Options{
		Levels:    []string{"others", "organization"},
		Telemetry: telemetry.Options{Mode: telemetry.ModeOff},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateNode(NodeSpec{Path: "/svc", Kind: names.KindDomain,
		ACL: acl.New(acl.AllowEveryone(acl.List))}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddPrincipal("eve", "others"); err != nil {
		t.Fatal(err)
	}
	ctx := ctxFor(t, s, "eve")
	if _, err := s.CheckData(ctx, "/svc", acl.Administrate); !IsDenied(err) {
		t.Fatalf("CheckData = %v, want a denial", err)
	}
	if n := testing.AllocsPerRun(200, func() {
		_, _ = s.CheckData(ctx, "/svc", acl.Administrate)
	}); n > 4 {
		t.Errorf("denied CheckData allocates %.1f times, want <= 4", n)
	}
}
