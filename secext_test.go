package secext

import (
	"strings"
	"testing"

	"secext/internal/principal"
)

func newTestWorld(t *testing.T) *World {
	t.Helper()
	w, err := NewWorld(WorldOptions{
		Levels:     []string{"others", "organization", "local"},
		Categories: []string{"myself", "dept-1", "dept-2", "outside"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorldLayout(t *testing.T) {
	w := newTestWorld(t)
	wantPaths := []string{
		"/svc", "/svc/fs/read", "/svc/fs/write", "/svc/fs/append",
		"/svc/fs/create", "/svc/fs/list", "/svc/fs/stat", "/svc/fs/remove",
		"/svc/thread/spawn", "/svc/thread/kill", "/svc/thread/list",
		"/svc/mbuf/alloc", "/svc/mbuf/free", "/svc/mbuf/stats",
		"/svc/net/open", "/svc/net/send", "/svc/net/recv", "/svc/net/close",
		"/svc/log/append", "/svc/log/read", "/svc/journal",
		"/fs", "/threads", "/net",
	}
	for _, p := range wantPaths {
		if _, err := w.Sys.Names().ResolveUnchecked(p); err != nil {
			t.Errorf("missing %s: %v", p, err)
		}
	}
	if w.FS == nil || w.Threads == nil || w.Mbuf == nil || w.Journal == nil || w.Net == nil {
		t.Error("world components missing")
	}
}

func TestWorldEndToEnd(t *testing.T) {
	w := newTestWorld(t)
	if _, err := w.Sys.AddPrincipal("alice", "organization:{dept-1}"); err != nil {
		t.Fatal(err)
	}
	ctx, err := w.Sys.NewContext("alice")
	if err != nil {
		t.Fatal(err)
	}
	// File round trip through the service interface.
	if _, err := w.Sys.Call(ctx, "/svc/fs/create", FileRequest{Path: "/fs/hello"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := w.Sys.Call(ctx, "/svc/fs/write", FileRequest{Path: "/fs/hello", Data: []byte("hi")}); err != nil {
		t.Fatalf("write: %v", err)
	}
	out, err := w.Sys.Call(ctx, "/svc/fs/read", FileRequest{Path: "/fs/hello"})
	if err != nil || string(out.([]byte)) != "hi" {
		t.Fatalf("read = %v, %v", out, err)
	}
	// Journal: append up works, read up is denied.
	if _, err := w.Sys.Call(ctx, "/svc/log/append", "alice event"); err != nil {
		t.Fatalf("journal append: %v", err)
	}
	if _, err := w.Sys.Call(ctx, "/svc/log/read", nil); !IsDenied(err) {
		t.Fatalf("journal read from below: got %v", err)
	}
	// An auditor at the top level reads it.
	if _, err := w.Sys.AddPrincipal("root", "local:{myself,dept-1,dept-2,outside}"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.Registry().Apply(principal.AddMember("auditors", "root")); err != nil {
		t.Fatal(err)
	}
	rctx, _ := w.Sys.NewContext("root")
	if _, err := w.Sys.Call(rctx, "/svc/log/read", nil); err != nil {
		t.Fatalf("auditor read: %v", err)
	}
	// Audit log saw everything.
	if w.Sys.Audit().Stats().Total == 0 {
		t.Error("audit log empty")
	}
}

func TestWorldOptionsValidation(t *testing.T) {
	if _, err := NewWorld(WorldOptions{}); err == nil {
		t.Error("no levels must fail")
	}
	if _, err := NewWorld(WorldOptions{Levels: []string{"a"}, JournalClassLabel: "bogus"}); err == nil {
		t.Error("bad journal label must fail")
	}
	w, err := NewWorld(WorldOptions{Levels: []string{"a"}, MbufCount: 2, MbufSize: 8, DisableAudit: true})
	if err != nil {
		t.Fatal(err)
	}
	if w.Sys.Audit().Enabled() {
		t.Error("DisableAudit")
	}
	if w.Mbuf.BufSize() != 8 {
		t.Error("mbuf dimensions")
	}
}

func TestWorldPolicyText(t *testing.T) {
	w, err := NewWorld(WorldOptions{
		Levels:     []string{"others", "organization", "local"},
		Categories: []string{"dept-1", "dept-2"},
		PolicyText: `
levels others organization local
principal carol class organization:{dept-2}
group ops
member ops carol
node /extra domain class others
acl /extra allow @ops list
`,
	})
	if err != nil {
		t.Fatalf("NewWorld with policy: %v", err)
	}
	ctx, err := w.Sys.NewContext("carol")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := w.Sys.List(ctx, "/extra"); err != nil || len(got) != 0 {
		t.Errorf("policy-granted list: %v, %v", got, err)
	}
	// Bad policy text fails construction.
	if _, err := NewWorld(WorldOptions{
		Levels: []string{"a"}, PolicyText: "levels b\n",
	}); err == nil {
		t.Error("mismatched policy levels must fail")
	}
	if _, err := NewWorld(WorldOptions{
		Levels: []string{"a"}, PolicyText: "junk\n",
	}); err == nil {
		t.Error("unparseable policy must fail")
	}
}

func TestFacadePolicy(t *testing.T) {
	p, err := ParsePolicyString("levels lo hi\nprincipal p class hi\n")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := p.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NewContext("p"); err != nil {
		t.Error(err)
	}
	p2, err := ParsePolicy(strings.NewReader(p.Format()))
	if err != nil || len(p2.Principals) != 1 {
		t.Errorf("ParsePolicy: %v", err)
	}
}

func TestFacadeACLHelpers(t *testing.T) {
	a := NewACL(Allow("x", Read|Execute), DenyEveryone(Administrate),
		AllowGroup("g", List), DenyGroup("h", Extend), AllowEveryone(List), Deny("y", Write))
	b, err := ParseACL(a.String())
	if err != nil || b.String() != a.String() {
		t.Errorf("facade ACL round trip: %v", err)
	}
	m, err := ParseMode("read,execute")
	if err != nil || m != Read|Execute {
		t.Errorf("ParseMode: %v %v", m, err)
	}
	if AllModes&Read == 0 || AllModes&WriteAppend == 0 || AllModes&Delete == 0 {
		t.Error("mode constants")
	}
}

func TestFacadeMountFS(t *testing.T) {
	sys, err := NewSystem(Options{Levels: []string{"l"}})
	if err != nil {
		t.Fatal(err)
	}
	bot, _ := sys.Lattice().Bottom()
	fs, err := MountFS(sys, "/data", NewACL(AllowEveryone(List|Write)), bot)
	if err != nil || fs.Root() != "/data" {
		t.Fatalf("MountFS: %v", err)
	}
	if _, err := sys.Names().ResolveUnchecked("/data"); err != nil {
		t.Error("mount node missing")
	}
	// Kind constants usable through the facade.
	if KindDomain == KindFile || KindMethod == KindDirectory || KindInterface == KindObject {
		t.Error("kind constants")
	}
}
