package extension

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"secext/internal/dispatch"
	"secext/internal/lattice"
	"secext/internal/principal"
	"secext/internal/subject"
)

// fakeHost implements Host with configurable denials.
type fakeHost struct {
	lat        *lattice.Lattice
	reg        *principal.Registry
	denyImport map[string]bool
	denyExtend map[string]bool
	extended   map[string][]dispatch.Binding
	calls      []string
}

func newFakeHost(t *testing.T) *fakeHost {
	t.Helper()
	lat, err := lattice.NewWithUniverse(
		[]string{"others", "organization", "local"},
		[]string{"dept-1", "dept-2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return &fakeHost{
		lat:        lat,
		reg:        principal.NewRegistry(lat),
		denyImport: map[string]bool{},
		denyExtend: map[string]bool{},
		extended:   map[string][]dispatch.Binding{},
	}
}

func (h *fakeHost) Authenticate(token string) (*principal.Principal, error) {
	return h.reg.Authenticate(token)
}

func (h *fakeHost) ParseClass(label string) (lattice.Class, error) {
	return h.lat.ParseClass(label)
}

func (h *fakeHost) CheckImport(ctx *subject.Context, path string) error {
	if h.denyImport[path] {
		return fmt.Errorf("denied import %s", path)
	}
	return nil
}

func (h *fakeHost) CheckExtend(ctx *subject.Context, path string) error {
	if h.denyExtend[path] {
		return fmt.Errorf("denied extend %s", path)
	}
	return nil
}

func (h *fakeHost) Call(ctx *subject.Context, path string, arg any) (any, error) {
	h.calls = append(h.calls, path)
	return "called:" + path, nil
}

func (h *fakeHost) CallLinked(ctx *subject.Context, path string, arg any) (any, error) {
	return h.Call(ctx, path, arg)
}

func (h *fakeHost) Extend(ctx *subject.Context, path string, b dispatch.Binding) error {
	if h.denyExtend[path] {
		return fmt.Errorf("denied extend %s", path)
	}
	h.extended[path] = append(h.extended[path], b)
	return nil
}

func (h *fakeHost) Retract(path, owner string) error {
	kept := h.extended[path][:0]
	for _, b := range h.extended[path] {
		if b.Owner != owner {
			kept = append(kept, b)
		}
	}
	h.extended[path] = kept
	return nil
}

func (h *fakeHost) token(t *testing.T, name, level string, cats ...string) string {
	t.Helper()
	if _, err := h.reg.Principal(name); err != nil {
		if _, err := h.reg.Apply(principal.AddPrincipal(name, h.lat.MustClass(level, cats...))); err != nil {
			t.Fatal(err)
		}
	}
	tok, err := h.reg.IssueToken(name)
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// testExt is a trivial extension calling one import from its handler.
type testExt struct {
	lk *Linkage
}

func (e *testExt) Init(lk *Linkage) (map[string]dispatch.Handler, error) {
	e.lk = lk
	h := func(ctx *subject.Context, arg any) (any, error) {
		if cap, err := lk.Cap("/svc/mbuf/alloc"); err == nil {
			return cap.Invoke(ctx, arg)
		}
		return "no-import", nil
	}
	return map[string]dispatch.Handler{"/svc/fs/read": h}, nil
}

func validManifest(t *testing.T, h *fakeHost) Manifest {
	t.Helper()
	return Manifest{
		Name:      "newfs",
		Principal: "alice",
		Token:     h.token(t, "alice", "organization", "dept-1"),
		Imports:   []string{"/svc/mbuf/alloc"},
		Extends:   []string{"/svc/fs/read"},
		Code:      func() Extension { return &testExt{} },
	}
}

func TestVerify(t *testing.T) {
	h := newFakeHost(t)
	m := validManifest(t, h)
	if err := m.Verify(); err != nil {
		t.Fatalf("valid manifest: %v", err)
	}
	cases := []struct {
		mutate func(*Manifest)
		name   string
	}{
		{func(m *Manifest) { m.Name = "" }, "empty name"},
		{func(m *Manifest) { m.Name = "a b" }, "space in name"},
		{func(m *Manifest) { m.Name = "a/b" }, "slash in name"},
		{func(m *Manifest) { m.Principal = "" }, "no principal"},
		{func(m *Manifest) { m.Code = nil }, "no code"},
		{func(m *Manifest) { m.Imports = []string{"relative"} }, "relative import"},
		{func(m *Manifest) { m.Imports = []string{"/a", "/a"} }, "dup import"},
		{func(m *Manifest) { m.Extends = []string{"/b", "/b"} }, "dup extends"},
		{func(m *Manifest) { m.Extends = []string{"//x"} }, "bad extends path"},
	}
	for _, tc := range cases {
		mm := validManifest(t, h)
		tc.mutate(&mm)
		if err := mm.Verify(); !errors.Is(err, ErrVerify) {
			t.Errorf("%s: got %v, want ErrVerify", tc.name, err)
		}
	}
}

func TestDigestStability(t *testing.T) {
	h := newFakeHost(t)
	a := validManifest(t, h)
	b := validManifest(t, h)
	b.Token = "different-token" // token is not authority
	b.Code = func() Extension { return nil }
	if a.Digest() != b.Digest() {
		t.Error("digest must depend only on authority fields")
	}
	c := validManifest(t, h)
	c.Imports = append(c.Imports, "/svc/net/send")
	if a.Digest() == c.Digest() {
		t.Error("digest must change with imports")
	}
	d := validManifest(t, h)
	d.StaticClass = "others"
	if a.Digest() == d.Digest() {
		t.Error("digest must change with static class")
	}
	// Import order must not matter.
	e := validManifest(t, h)
	e.Imports = []string{"/b", "/a"}
	f := validManifest(t, h)
	f.Imports = []string{"/a", "/b"}
	if e.Digest() != f.Digest() {
		t.Error("digest must canonicalize import order")
	}
}

func TestLoadHappyPath(t *testing.T) {
	h := newFakeHost(t)
	l := NewLoader(h)
	m := validManifest(t, h)
	rec, err := l.Load(m)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if rec.Digest != m.Digest() {
		t.Error("digest mismatch")
	}
	if rec.Context.SubjectName() != "alice" {
		t.Errorf("context principal = %s", rec.Context.SubjectName())
	}
	if got := rec.Linkage.Imports(); len(got) != 1 || got[0] != "/svc/mbuf/alloc" {
		t.Errorf("linkage = %v", got)
	}
	if len(h.extended["/svc/fs/read"]) != 1 || h.extended["/svc/fs/read"][0].Owner != "newfs" {
		t.Errorf("registration = %v", h.extended)
	}
	if names := l.Names(); len(names) != 1 || names[0] != "newfs" {
		t.Errorf("Names = %v", names)
	}
	got, err := l.Get("newfs")
	if err != nil || got != rec {
		t.Errorf("Get: %v %v", got, err)
	}
}

func TestLoadStaticClassClamps(t *testing.T) {
	h := newFakeHost(t)
	l := NewLoader(h)
	m := validManifest(t, h) // alice is organization:{dept-1}
	m.StaticClass = "others"
	rec, err := l.Load(m)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if rec.Context.Class().String() != "others" {
		t.Errorf("clamped context class = %s", rec.Context.Class())
	}
	if !rec.Static.Equal(h.lat.MustClass("others")) {
		t.Errorf("static = %s", rec.Static)
	}
	if h.extended["/svc/fs/read"][0].Static.String() != "others" {
		t.Error("binding must carry static class")
	}
}

func TestLoadBadStaticClass(t *testing.T) {
	h := newFakeHost(t)
	l := NewLoader(h)
	m := validManifest(t, h)
	m.StaticClass = "not-a-level"
	if _, err := l.Load(m); !errors.Is(err, ErrVerify) {
		t.Errorf("got %v, want ErrVerify", err)
	}
}

func TestLoadAuthFailures(t *testing.T) {
	h := newFakeHost(t)
	l := NewLoader(h)
	m := validManifest(t, h)
	m.Token = "garbage"
	if _, err := l.Load(m); !errors.Is(err, ErrAuth) {
		t.Errorf("bad token: got %v", err)
	}
	m2 := validManifest(t, h)
	m2.Principal = "bob" // token still names alice
	_ = h.token(t, "bob", "others")
	if _, err := l.Load(m2); !errors.Is(err, ErrAuth) {
		t.Errorf("principal mismatch: got %v", err)
	}
}

func TestLoadImportDenied(t *testing.T) {
	h := newFakeHost(t)
	h.denyImport["/svc/mbuf/alloc"] = true
	l := NewLoader(h)
	_, err := l.Load(validManifest(t, h))
	if !errors.Is(err, ErrLink) {
		t.Fatalf("got %v, want ErrLink", err)
	}
	if !strings.Contains(err.Error(), "/svc/mbuf/alloc") {
		t.Errorf("error must name the denied import: %v", err)
	}
	if len(l.Names()) != 0 {
		t.Error("failed load must not be recorded")
	}
}

func TestLoadExtendDenied(t *testing.T) {
	h := newFakeHost(t)
	h.denyExtend["/svc/fs/read"] = true
	l := NewLoader(h)
	if _, err := l.Load(validManifest(t, h)); !errors.Is(err, ErrLink) {
		t.Errorf("got %v, want ErrLink", err)
	}
	if len(h.extended["/svc/fs/read"]) != 0 {
		t.Error("denied extend must leave no registrations")
	}
}

func TestLoadDuplicate(t *testing.T) {
	h := newFakeHost(t)
	l := NewLoader(h)
	if _, err := l.Load(validManifest(t, h)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load(validManifest(t, h)); !errors.Is(err, ErrAlreadyLoaded) {
		t.Errorf("got %v, want ErrAlreadyLoaded", err)
	}
}

// badExt returns handlers that do not match the manifest.
type badExt struct {
	handlers map[string]dispatch.Handler
	initErr  error
}

func (e *badExt) Init(lk *Linkage) (map[string]dispatch.Handler, error) {
	return e.handlers, e.initErr
}

func TestLoadHandlerMismatch(t *testing.T) {
	h := newFakeHost(t)
	l := NewLoader(h)

	// Missing handler for a declared extend.
	m := validManifest(t, h)
	m.Name = "missing"
	m.Code = func() Extension { return &badExt{handlers: map[string]dispatch.Handler{}} }
	if _, err := l.Load(m); !errors.Is(err, ErrMissingHandler) {
		t.Errorf("missing handler: got %v", err)
	}

	// Handler for an undeclared service.
	m2 := validManifest(t, h)
	m2.Name = "undeclared"
	m2.Code = func() Extension {
		return &badExt{handlers: map[string]dispatch.Handler{
			"/svc/fs/read": func(ctx *subject.Context, arg any) (any, error) { return nil, nil },
			"/svc/fs/evil": func(ctx *subject.Context, arg any) (any, error) { return nil, nil },
		}}
	}
	if _, err := l.Load(m2); !errors.Is(err, ErrVerify) {
		t.Errorf("undeclared handler: got %v", err)
	}

	// Init error.
	m3 := validManifest(t, h)
	m3.Name = "initfail"
	m3.Code = func() Extension { return &badExt{initErr: errors.New("boom")} }
	if _, err := l.Load(m3); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("init error: got %v", err)
	}

	// Nil instance.
	m4 := validManifest(t, h)
	m4.Name = "nilinst"
	m4.Code = func() Extension { return nil }
	if _, err := l.Load(m4); !errors.Is(err, ErrVerify) {
		t.Errorf("nil instance: got %v", err)
	}
}

func TestUnload(t *testing.T) {
	h := newFakeHost(t)
	l := NewLoader(h)
	if _, err := l.Load(validManifest(t, h)); err != nil {
		t.Fatal(err)
	}
	if err := l.Unload("newfs"); err != nil {
		t.Fatalf("Unload: %v", err)
	}
	if len(h.extended["/svc/fs/read"]) != 0 {
		t.Error("unload must retract specializations")
	}
	if err := l.Unload("newfs"); !errors.Is(err, ErrNotLoaded) {
		t.Errorf("double unload: got %v", err)
	}
	if _, err := l.Get("newfs"); !errors.Is(err, ErrNotLoaded) {
		t.Errorf("Get after unload: got %v", err)
	}
	// Reload after unload is fine.
	if _, err := l.Load(validManifest(t, h)); err != nil {
		t.Errorf("reload: %v", err)
	}
}

func TestCapabilityInvoke(t *testing.T) {
	h := newFakeHost(t)
	l := NewLoader(h)
	rec, err := l.Load(validManifest(t, h))
	if err != nil {
		t.Fatal(err)
	}
	cap := rec.Linkage.MustCap("/svc/mbuf/alloc")
	if cap.Path() != "/svc/mbuf/alloc" {
		t.Errorf("Path = %s", cap.Path())
	}
	out, err := cap.Invoke(rec.Context, nil)
	if err != nil || out != "called:/svc/mbuf/alloc" {
		t.Errorf("Invoke = %v, %v", out, err)
	}
	if _, err := rec.Linkage.Cap("/svc/other"); !errors.Is(err, ErrUnknownImport) {
		t.Errorf("Cap unknown: got %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCap on unknown import must panic")
		}
	}()
	rec.Linkage.MustCap("/nope")
}
