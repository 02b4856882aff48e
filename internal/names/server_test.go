package names

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"secext/internal/acl"
	"secext/internal/lattice"
)

// fakeSubject implements acl.Subject.
type fakeSubject struct {
	name   string
	groups map[string]bool
}

func (f fakeSubject) SubjectName() string    { return f.name }
func (f fakeSubject) MemberOf(g string) bool { return f.groups[g] }

func subj(name string) fakeSubject { return fakeSubject{name: name} }

type fixture struct {
	lat  *lattice.Lattice
	srv  *Server
	top  lattice.Class
	bot  lattice.Class
	org  lattice.Class
	root fakeSubject // all-powerful subject
}

func newFixture(t testing.TB) *fixture {
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
	rootACL := acl.New(
		acl.Allow("root", acl.AllModes),
		acl.AllowEveryone(acl.List),
	)
	srv := NewServer(lat, rootACL, bot)
	return &fixture{
		lat: lat, srv: srv, top: top, bot: bot,
		org:  lat.MustClass("organization", "dept-1"),
		root: subj("root"),
	}
}

// mkTree builds /svc/fs/read with permissive defaults for root.
func (f *fixture) mkTree(t testing.TB) {
	t.Helper()
	openACL := acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List))
	specs := []struct {
		parent string
		spec   BindSpec
	}{
		{"/", BindSpec{Name: "svc", Kind: KindDomain, ACL: openACL, Class: f.bot}},
		{"/svc", BindSpec{Name: "fs", Kind: KindInterface, ACL: openACL, Class: f.bot}},
		{"/svc/fs", BindSpec{Name: "read", Kind: KindMethod, ACL: openACL, Class: f.bot, Payload: "read-impl"}},
	}
	for _, s := range specs {
		if _, err := f.srv.BindUnchecked(s.parent, s.spec); err != nil {
			t.Fatalf("BindUnchecked(%s/%s): %v", s.parent, s.spec.Name, err)
		}
	}
}

func TestSplitPath(t *testing.T) {
	cases := []struct {
		in   string
		want []string
		ok   bool
	}{
		{"/", nil, true},
		{"/a", []string{"a"}, true},
		{"/a/b/c", []string{"a", "b", "c"}, true},
		{"", nil, false},
		{"a/b", nil, false},
		{"/a//b", nil, false},
		{"/a/./b", nil, false},
		{"/a/../b", nil, false},
		{"/a/", nil, false},
	}
	for _, tc := range cases {
		got, err := SplitPath(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("SplitPath(%q): err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if err == nil && len(got) != len(tc.want) {
			t.Errorf("SplitPath(%q) = %v, want %v", tc.in, got, tc.want)
		}
		if err != nil && !errors.Is(err, ErrBadPath) {
			t.Errorf("SplitPath(%q): error %v must wrap ErrBadPath", tc.in, err)
		}
	}
}

func TestJoin(t *testing.T) {
	cases := []struct{ prefix, want string }{
		{"/", "/a/b"},
		{"/x", "/x/a/b"},
		{"/x/", "/x/a/b"},
	}
	for _, tc := range cases {
		if got := Join(tc.prefix, "a", "b"); got != tc.want {
			t.Errorf("Join(%q, a, b) = %q, want %q", tc.prefix, got, tc.want)
		}
	}
	if got := Join("/"); got != "/" {
		t.Errorf("Join(/) = %q", got)
	}
}

func TestBindAndResolve(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	n, err := f.srv.ResolveUnchecked("/svc/fs/read")
	if err != nil {
		t.Fatalf("ResolveUnchecked: %v", err)
	}
	if n.Path() != "/svc/fs/read" {
		t.Errorf("Path = %q", n.Path())
	}
	if n.Kind() != KindMethod || !n.Kind().Leaf() {
		t.Errorf("Kind = %v", n.Kind())
	}
	if n.Payload() != "read-impl" {
		t.Errorf("Payload = %v", n.Payload())
	}
	if n.Name() != "read" {
		t.Errorf("Name = %q", n.Name())
	}
	root, err := f.srv.ResolveUnchecked("/")
	if err != nil || root.Path() != "/" || root.Kind() != KindRoot {
		t.Errorf("root resolve: %v %v", root, err)
	}
}

func TestResolveNotFound(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	_, err := f.srv.ResolveUnchecked("/svc/nope/x")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	if !strings.Contains(err.Error(), "/svc/nope") {
		t.Errorf("error must name the failing prefix: %v", err)
	}
}

func TestBindChecked(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	alice := subj("alice")
	// alice has no write on /svc/fs.
	_, err := f.srv.Apply(alice, f.top, Bind("/svc/fs", BindSpec{
		Name: "write", Kind: KindMethod, Class: f.bot,
	}))
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("unauthorized bind: got %v, want ErrDenied", err)
	}
	// Grant alice write and retry; class must dominate hers (top wrote
	// at bot would be write-down).
	aclFS := acl.New(acl.Allow("alice", acl.Write|acl.List))
	if err := f.srv.SetACLUnchecked("/svc/fs", aclFS); err != nil {
		t.Fatal(err)
	}
	_, err = f.srv.Apply(alice, f.top, Bind("/svc/fs", BindSpec{
		Name: "write", Kind: KindMethod, Class: f.bot,
	}))
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("write-down bind: got %v, want ErrDenied", err)
	}
	// MAC write to the parent fails too when subject is top and parent
	// is bot; use a bot-class subject binding a bot node instead.
	_, err = f.srv.Apply(alice, f.bot, Bind("/svc/fs", BindSpec{
		Name: "write", Kind: KindMethod, Class: f.bot, Payload: "w",
	}))
	if err != nil {
		t.Fatalf("authorized bind: %v", err)
	}
	if _, err := f.srv.ResolveUnchecked("/svc/fs/write"); err != nil {
		t.Fatalf("bound node missing: %v", err)
	}
}

func TestBindErrors(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	// Duplicate name.
	_, err := f.srv.BindUnchecked("/svc", BindSpec{Name: "fs", Kind: KindInterface, Class: f.bot})
	if !errors.Is(err, ErrExists) {
		t.Errorf("dup bind: got %v, want ErrExists", err)
	}
	// Child of a leaf.
	_, err = f.srv.BindUnchecked("/svc/fs/read", BindSpec{Name: "x", Kind: KindMethod, Class: f.bot})
	if !errors.Is(err, ErrLeaf) {
		t.Errorf("bind under leaf: got %v, want ErrLeaf", err)
	}
	// Bad component.
	for _, bad := range []string{"", ".", "..", "a/b"} {
		_, err = f.srv.BindUnchecked("/svc", BindSpec{Name: bad, Kind: KindObject, Class: f.bot})
		if !errors.Is(err, ErrBadPath) {
			t.Errorf("bind %q: got %v, want ErrBadPath", bad, err)
		}
	}
	// Foreign/zero class.
	other, _ := lattice.NewWithUniverse([]string{"x"}, nil)
	_, err = f.srv.BindUnchecked("/svc", BindSpec{Name: "z", Kind: KindObject, Class: other.MustClass("x")})
	if err == nil {
		t.Error("foreign class bind must fail")
	}
	_, err = f.srv.BindUnchecked("/svc", BindSpec{Name: "z", Kind: KindObject})
	if err == nil {
		t.Error("zero class bind must fail")
	}
}

func TestTraversalVisibility(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	mallory := subj("mallory")
	// Root allows everyone list, but /svc does too; tighten /svc so
	// mallory cannot see through it.
	if err := f.srv.SetACLUnchecked("/svc", acl.New(acl.Allow("root", acl.AllModes))); err != nil {
		t.Fatal(err)
	}
	_, err := f.srv.Resolve(mallory, f.top, "/svc/fs/read")
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("traversal through hidden node: got %v, want ErrDenied", err)
	}
	var de *DeniedError
	if !errors.As(err, &de) || de.Path != "/svc" {
		t.Errorf("denial must point at /svc: %v", err)
	}
	// Root still passes.
	if _, err := f.srv.Resolve(f.root, f.top, "/svc/fs/read"); err != nil {
		t.Fatalf("root traversal: %v", err)
	}
}

func TestTraversalMACVisibility(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	// Put /svc at organization class: a bottom-class subject cannot
	// even see through it although the ACL allows everyone list.
	if err := f.srv.SetClassUnchecked("/svc", f.org); err != nil {
		t.Fatal(err)
	}
	_, err := f.srv.Resolve(f.root, f.bot, "/svc/fs/read")
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("MAC traversal: got %v, want ErrDenied", err)
	}
	if _, err := f.srv.Resolve(f.root, f.top, "/svc/fs/read"); err != nil {
		t.Fatalf("dominating subject traversal: %v", err)
	}
}

func TestList(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	got, err := f.srv.List(f.root, f.top, "/svc")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(got) != 1 || got[0] != "fs" {
		t.Errorf("List = %v", got)
	}
	if _, err := f.srv.List(f.root, f.top, "/svc/fs/read"); !errors.Is(err, ErrNotLeaf) {
		t.Errorf("List on leaf: got %v, want ErrNotLeaf", err)
	}
	if _, err := f.srv.List(subj("nobody"), f.bot, "/svc"); err != nil {
		t.Errorf("everyone has list on /svc: %v", err)
	}
	if err := f.srv.SetACLUnchecked("/svc", acl.New()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.List(subj("nobody"), f.bot, "/svc"); !errors.Is(err, ErrDenied) {
		t.Errorf("List without mode: got %v, want ErrDenied", err)
	}
}

func TestCheckAccessModes(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	a := acl.New(acl.Allow("ext", acl.Execute), acl.AllowEveryone(acl.List))
	if err := f.srv.SetACLUnchecked("/svc/fs/read", a); err != nil {
		t.Fatal(err)
	}
	ext := subj("ext")
	if _, _, err := f.srv.CheckAccess(ext, f.bot, "/svc/fs/read", acl.Execute, nil); err != nil {
		t.Errorf("execute: %v", err)
	}
	if _, _, err := f.srv.CheckAccess(ext, f.bot, "/svc/fs/read", acl.Extend, nil); !errors.Is(err, ErrDenied) {
		t.Errorf("extend without mode: got %v, want ErrDenied", err)
	}
	// MAC: object at organization, subject at bottom -> execute denied
	// even with the ACL mode.
	if err := f.srv.SetClassUnchecked("/svc/fs/read", f.org); err != nil {
		t.Fatal(err)
	}
	_, _, err := f.srv.CheckAccess(ext, f.bot, "/svc/fs/read", acl.Execute, nil)
	if !errors.Is(err, ErrDenied) {
		t.Errorf("MAC execute: got %v, want ErrDenied", err)
	}
	var de *DeniedError
	if !errors.As(err, &de) || !strings.Contains(de.Why, "mac") {
		t.Errorf("denial must cite mac: %v", err)
	}
}

func TestUnbind(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	// Not empty.
	if _, err := f.srv.Apply(nil, lattice.Class{}, Unbind("/svc")); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("unbind non-empty: got %v, want ErrNotEmpty", err)
	}
	// Root.
	if _, err := f.srv.Apply(nil, lattice.Class{}, Unbind("/")); !errors.Is(err, ErrRoot) {
		t.Errorf("unbind root: got %v, want ErrRoot", err)
	}
	// Checked requires delete on node + write on parent.
	alice := subj("alice")
	if _, err := f.srv.Apply(alice, f.bot, Unbind("/svc/fs/read")); !errors.Is(err, ErrDenied) {
		t.Errorf("unauthorized unbind: got %v, want ErrDenied", err)
	}
	if err := f.srv.SetACLUnchecked("/svc/fs/read", acl.New(acl.Allow("alice", acl.Delete))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.Apply(alice, f.bot, Unbind("/svc/fs/read")); !errors.Is(err, ErrDenied) {
		t.Errorf("unbind without parent write: got %v, want ErrDenied", err)
	}
	if err := f.srv.SetACLUnchecked("/svc/fs", acl.New(acl.Allow("alice", acl.Write|acl.List))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.Apply(alice, f.bot, Unbind("/svc/fs/read")); err != nil {
		t.Fatalf("authorized unbind: %v", err)
	}
	if _, err := f.srv.ResolveUnchecked("/svc/fs/read"); !errors.Is(err, ErrNotFound) {
		t.Errorf("node must be gone: %v", err)
	}
}

func TestACLOps(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	alice := subj("alice")
	// GetACL requires read or administrate.
	if _, err := f.srv.GetACL(alice, f.top, "/svc/fs/read"); !errors.Is(err, ErrDenied) {
		t.Errorf("GetACL unauthorized: got %v, want ErrDenied", err)
	}
	if err := f.srv.SetACLUnchecked("/svc/fs/read",
		acl.New(acl.Allow("alice", acl.Read))); err != nil {
		t.Fatal(err)
	}
	got, err := f.srv.GetACL(alice, f.top, "/svc/fs/read")
	if err != nil {
		t.Fatalf("GetACL with read: %v", err)
	}
	if got.Len() != 1 {
		t.Errorf("GetACL = %v", got)
	}
	// SetACL requires administrate.
	if _, err := f.srv.Apply(alice, f.bot, SetACL("/svc/fs/read", acl.New())); !errors.Is(err, ErrDenied) {
		t.Errorf("SetACL without administrate: got %v, want ErrDenied", err)
	}
	if err := f.srv.SetACLUnchecked("/svc/fs/read",
		acl.New(acl.Allow("alice", acl.Administrate))); err != nil {
		t.Fatal(err)
	}
	newACL := acl.New(acl.Allow("bob", acl.Execute))
	if _, err := f.srv.Apply(alice, f.bot, SetACL("/svc/fs/read", newACL)); err != nil {
		t.Fatalf("SetACL authorized: %v", err)
	}
	back, _ := f.srv.ACLOf("/svc/fs/read")
	if back.String() != newACL.String() {
		t.Errorf("ACL not replaced: %v", back)
	}
	// GetACL via administrate (alice lost read but kept nothing now).
	if _, err := f.srv.GetACL(alice, f.top, "/svc/fs/read"); !errors.Is(err, ErrDenied) {
		t.Errorf("GetACL after replace: got %v, want ErrDenied", err)
	}
}

func TestSetClass(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	alice := subj("alice")
	if err := f.srv.SetACLUnchecked("/svc/fs/read",
		acl.New(acl.Allow("alice", acl.Administrate))); err != nil {
		t.Fatal(err)
	}
	// Relabel up from bot as a bot subject: allowed (write up).
	if _, err := f.srv.Apply(alice, f.bot, SetClass("/svc/fs/read", f.org)); err != nil {
		t.Fatalf("relabel up: %v", err)
	}
	n, _ := f.srv.ResolveUnchecked("/svc/fs/read")
	if !n.Class().Equal(f.org) {
		t.Errorf("class = %v", n.Class())
	}
	// Now alice at bot cannot administrate an org node (MAC write ok --
	// org dominates bot -- but administrate needs write which is fine;
	// the relabel *down* must fail).
	if _, err := f.srv.Apply(alice, f.bot, SetClass("/svc/fs/read", f.bot)); !errors.Is(err, ErrDenied) {
		t.Errorf("relabel down: got %v, want ErrDenied", err)
	}
	// Foreign class rejected.
	other, _ := lattice.NewWithUniverse([]string{"x"}, nil)
	if _, err := f.srv.Apply(alice, f.bot, SetClass("/svc/fs/read", other.MustClass("x"))); err == nil {
		t.Error("foreign class relabel must fail")
	}
}

func TestWalkAndSize(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	var paths []string
	f.srv.Walk(func(p string, n *Node) { paths = append(paths, p) })
	want := []string{"/", "/svc", "/svc/fs", "/svc/fs/read"}
	if len(paths) != len(want) {
		t.Fatalf("Walk = %v", paths)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Errorf("Walk[%d] = %q, want %q", i, paths[i], want[i])
		}
	}
	if f.srv.Size() != 4 {
		t.Errorf("Size = %d", f.srv.Size())
	}
}

func TestSetPayload(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	if _, err := f.srv.Apply(nil, lattice.Class{}, SetPayload("/svc/fs/read", 42)); err != nil {
		t.Fatal(err)
	}
	n, _ := f.srv.ResolveUnchecked("/svc/fs/read")
	if n.Payload() != 42 {
		t.Errorf("Payload = %v", n.Payload())
	}
	if _, err := f.srv.Apply(nil, lattice.Class{}, SetPayload("/nope", 1)); !errors.Is(err, ErrNotFound) {
		t.Errorf("SetPayload missing: %v", err)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if strings.Contains(k.String(), "Kind(") {
			t.Errorf("kind %d missing name", k)
		}
	}
	if !strings.Contains(Kind(42).String(), "42") {
		t.Error("unknown kind must render numerically")
	}
	if !KindMethod.Leaf() || !KindFile.Leaf() || KindDomain.Leaf() || KindDirectory.Leaf() {
		t.Error("Leaf classification wrong")
	}
}

func TestDeniedErrorRendering(t *testing.T) {
	e := &DeniedError{Path: "/x", Op: "execute", Why: "acl: modes not granted"}
	if !errors.Is(e, ErrDenied) {
		t.Error("DeniedError must wrap ErrDenied")
	}
	for _, want := range []string{"/x", "execute", "acl"} {
		if !strings.Contains(e.Error(), want) {
			t.Errorf("error %q missing %q", e.Error(), want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				_, _ = f.srv.Resolve(f.root, f.top, "/svc/fs/read")
				_, _ = f.srv.List(f.root, f.top, "/svc")
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				name := "n" + string(rune('a'+i)) + string(rune('a'+j%26))
				_, _ = f.srv.BindUnchecked("/svc", BindSpec{
					Name: name, Kind: KindObject, Class: f.bot,
				})
				_, _ = f.srv.Apply(nil, lattice.Class{}, Unbind("/svc/"+name))
			}
		}(i)
	}
	wg.Wait()
}
