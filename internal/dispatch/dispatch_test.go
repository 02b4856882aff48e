package dispatch

import (
	"errors"
	"testing"

	"secext/internal/lattice"
	"secext/internal/principal"
	"secext/internal/subject"
)

type world struct {
	lat *lattice.Lattice
	reg *principal.Registry
	d   *Dispatcher
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
	return &world{lat: lat, reg: principal.NewRegistry(lat), d: New()}
}

func (w *world) ctx(t *testing.T, name, class string, cats ...string) *subject.Context {
	t.Helper()
	p, err := w.reg.Principal(name)
	if err != nil {
		_, err = w.reg.Apply(principal.AddPrincipal(name, w.lat.MustClass(class, cats...)))
		p, _ = w.reg.Principal(name)
		if err != nil {
			t.Fatal(err)
		}
	}
	return subject.MustNew(p)
}

// tag returns a handler that reports its identity and running class.
func tag(id string) Handler {
	return func(ctx *subject.Context, arg any) (any, error) {
		return id + "@" + ctx.Class().String(), nil
	}
}

func TestRegisterInvokeBase(t *testing.T) {
	w := newWorld(t)
	if err := w.d.Register("/svc/fs/read", Binding{Owner: "base", Handler: tag("base")}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	got, err := w.d.Invoke("/svc/fs/read", w.ctx(t, "alice", "organization", "dept-1"), nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if got != "base@organization:{dept-1}" {
		t.Errorf("Invoke = %v", got)
	}
}

func TestRegisterErrors(t *testing.T) {
	w := newWorld(t)
	if err := w.d.Register("/s", Binding{Owner: "b"}); !errors.Is(err, ErrNilHandler) {
		t.Errorf("nil handler: got %v", err)
	}
	if err := w.d.Register("/s", Binding{Owner: "b", Handler: tag("x")}); err != nil {
		t.Fatal(err)
	}
	if err := w.d.Register("/s", Binding{Owner: "b2", Handler: tag("y")}); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate: got %v", err)
	}
	if err := w.d.Extend("/nope", Binding{Owner: "e", Handler: tag("z")}); !errors.Is(err, ErrNoService) {
		t.Errorf("extend missing: got %v", err)
	}
	if err := w.d.Extend("/s", Binding{Owner: "e"}); !errors.Is(err, ErrNilHandler) {
		t.Errorf("extend nil handler: got %v", err)
	}
	if _, err := w.d.Invoke("/nope", w.ctx(t, "a", "others"), nil); !errors.Is(err, ErrNoService) {
		t.Errorf("invoke missing: got %v", err)
	}
}

func TestClassBasedSelection(t *testing.T) {
	// §2.2: "Extensions with different security classes can all be
	// allowed to extend the same system service. But when the extended
	// service is invoked, the right extension is selected based on the
	// security class of the caller."
	w := newWorld(t)
	if err := w.d.Register("/svc/fs/read", Binding{Owner: "base", Handler: tag("base")}); err != nil {
		t.Fatal(err)
	}
	orgD1 := w.lat.MustClass("organization", "dept-1")
	orgD2 := w.lat.MustClass("organization", "dept-2")
	local := w.lat.MustClass("local", "dept-1", "dept-2")
	for _, b := range []Binding{
		{Owner: "ext-d1", Static: orgD1, Handler: tag("d1")},
		{Owner: "ext-d2", Static: orgD2, Handler: tag("d2")},
		{Owner: "ext-local", Static: local, Handler: tag("loc")},
	} {
		if err := w.d.Extend("/svc/fs/read", b); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name string
		ctx  *subject.Context
		want string
	}{
		// dept-1 caller gets the dept-1 extension, clamped to dept-1.
		{"d1 caller", w.ctx(t, "u1", "organization", "dept-1"), "d1@organization:{dept-1}"},
		{"d2 caller", w.ctx(t, "u2", "organization", "dept-2"), "d2@organization:{dept-2}"},
		// A local caller dominating all statics gets the most dominant.
		{"local caller", w.ctx(t, "u3", "local", "dept-1", "dept-2"), "loc@local:{dept-1,dept-2}"},
		// An outside caller dominates no static: falls to base.
		{"outside caller", w.ctx(t, "u4", "others"), "base@others"},
	}
	for _, tc := range cases {
		got, err := w.d.Invoke("/svc/fs/read", tc.ctx, nil)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSelectionTieGoesToEarliest(t *testing.T) {
	w := newWorld(t)
	if err := w.d.Register("/s", Binding{Owner: "base", Handler: tag("base")}); err != nil {
		t.Fatal(err)
	}
	c := w.lat.MustClass("organization", "dept-1")
	if err := w.d.Extend("/s", Binding{Owner: "first", Static: c, Handler: tag("first")}); err != nil {
		t.Fatal(err)
	}
	if err := w.d.Extend("/s", Binding{Owner: "second", Static: c, Handler: tag("second")}); err != nil {
		t.Fatal(err)
	}
	got, err := w.d.Invoke("/s", w.ctx(t, "u", "local", "dept-1", "dept-2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != "first@organization:{dept-1}" {
		t.Errorf("tie: got %v, want first", got)
	}
}

func TestDynamicSpecializationIsLeastSpecific(t *testing.T) {
	w := newWorld(t)
	if err := w.d.Register("/s", Binding{Owner: "base", Handler: tag("base")}); err != nil {
		t.Fatal(err)
	}
	if err := w.d.Extend("/s", Binding{Owner: "dyn", Handler: tag("dyn")}); err != nil {
		t.Fatal(err)
	}
	// Dynamic spec beats base but loses to any admissible static spec.
	got, _ := w.d.Invoke("/s", w.ctx(t, "u1", "others"), nil)
	if got != "dyn@others" {
		t.Errorf("dynamic spec must beat base: %v", got)
	}
	static := w.lat.MustClass("organization", "dept-1")
	if err := w.d.Extend("/s", Binding{Owner: "st", Static: static, Handler: tag("st")}); err != nil {
		t.Fatal(err)
	}
	got, _ = w.d.Invoke("/s", w.ctx(t, "u2", "organization", "dept-1"), nil)
	if got != "st@organization:{dept-1}" {
		t.Errorf("static spec must beat dynamic: %v", got)
	}
	got, _ = w.d.Invoke("/s", w.ctx(t, "u3", "others"), nil)
	if got != "dyn@others" {
		t.Errorf("inadmissible static must fall back to dynamic: %v", got)
	}
}

func TestGuard(t *testing.T) {
	w := newWorld(t)
	if err := w.d.Register("/s", Binding{Owner: "base", Handler: tag("base")}); err != nil {
		t.Fatal(err)
	}
	noD2 := func(c lattice.Class) bool {
		d2 := w.lat.MustClass("others", "dept-2")
		return !c.Dominates(d2)
	}
	if err := w.d.Extend("/s", Binding{Owner: "g", Guard: noD2, Handler: tag("g")}); err != nil {
		t.Fatal(err)
	}
	got, _ := w.d.Invoke("/s", w.ctx(t, "u1", "organization", "dept-1"), nil)
	if got != "g@organization:{dept-1}" {
		t.Errorf("guard admit: %v", got)
	}
	got, _ = w.d.Invoke("/s", w.ctx(t, "u2", "organization", "dept-2"), nil)
	if got != "base@organization:{dept-2}" {
		t.Errorf("guard reject: %v", got)
	}
}

func TestBaseGuardCanRejectEntirely(t *testing.T) {
	w := newWorld(t)
	org := w.lat.MustClass("organization")
	if err := w.d.Register("/s", Binding{Owner: "base", Static: org, Handler: tag("base")}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.d.Invoke("/s", w.ctx(t, "low", "others"), nil); !errors.Is(err, ErrNoHandler) {
		t.Errorf("inadmissible base: got %v", err)
	}
}

func TestRemoveExtensions(t *testing.T) {
	w := newWorld(t)
	if err := w.d.Register("/s", Binding{Owner: "base", Handler: tag("base")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		owner := "ext"
		if i == 2 {
			owner = "other"
		}
		if err := w.d.Extend("/s", Binding{Owner: owner, Handler: tag(owner)}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := w.d.RemoveExtensions("/s", "ext")
	if err != nil || n != 2 {
		t.Fatalf("RemoveExtensions = %d, %v", n, err)
	}
	hs, _ := w.d.Handlers("/s")
	if len(hs) != 2 || hs[0] != "base" || hs[1] != "other" {
		t.Errorf("Handlers = %v", hs)
	}
	if _, err := w.d.RemoveExtensions("/nope", "x"); !errors.Is(err, ErrNoService) {
		t.Errorf("remove from missing: got %v", err)
	}
}

func TestUnregister(t *testing.T) {
	w := newWorld(t)
	if err := w.d.Register("/s", Binding{Owner: "base", Handler: tag("base")}); err != nil {
		t.Fatal(err)
	}
	if !w.d.Registered("/s") || w.d.Services() != 1 {
		t.Error("Registered/Services wrong")
	}
	if err := w.d.Unregister("/s"); err != nil {
		t.Fatal(err)
	}
	if w.d.Registered("/s") || w.d.Services() != 0 {
		t.Error("service must be gone")
	}
	if err := w.d.Unregister("/s"); !errors.Is(err, ErrNoService) {
		t.Errorf("double unregister: got %v", err)
	}
	if _, err := w.d.Handlers("/s"); !errors.Is(err, ErrNoService) {
		t.Errorf("Handlers on missing: got %v", err)
	}
}

func TestInvokeRunsAtClampedClass(t *testing.T) {
	// The handler observes the meet of caller class and static class —
	// authority amplification through extension is impossible.
	w := newWorld(t)
	static := w.lat.MustClass("organization", "dept-1")
	var seen lattice.Class
	h := func(ctx *subject.Context, arg any) (any, error) {
		seen = ctx.Class()
		return nil, nil
	}
	if err := w.d.Register("/s", Binding{Owner: "b", Static: static, Handler: h}); err != nil {
		t.Fatal(err)
	}
	caller := w.ctx(t, "u", "local", "dept-1", "dept-2")
	if _, err := w.d.Invoke("/s", caller, nil); err != nil {
		t.Fatal(err)
	}
	want := w.lat.MustClass("organization", "dept-1")
	if !seen.Equal(want) {
		t.Errorf("handler ran at %s, want %s", seen, want)
	}
}
