package subject

import (
	"errors"
	"strings"
	"testing"

	"secext/internal/lattice"
	"secext/internal/principal"
)

func newWorld(t *testing.T) (*lattice.Lattice, *principal.Registry) {
	t.Helper()
	lat, err := lattice.NewWithUniverse(
		[]string{"others", "organization", "local"},
		[]string{"myself", "dept-1", "dept-2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return lat, principal.NewRegistry(lat)
}

func TestNewContext(t *testing.T) {
	lat, reg := newWorld(t)
	_, err := reg.Apply(principal.AddPrincipal("alice", lat.MustClass("local", "myself")))
	alice, _ := reg.Principal("alice")
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := New(alice)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if ctx.Principal() != alice {
		t.Error("Principal accessor")
	}
	if !ctx.Class().Equal(alice.Class()) {
		t.Error("root context must run at principal class")
	}
	if ctx.Depth() != 0 || ctx.Parent() != nil || ctx.Site() != "" {
		t.Error("root context shape wrong")
	}
	if ctx.SubjectName() != "alice" {
		t.Errorf("SubjectName = %q", ctx.SubjectName())
	}
	if _, err := New(nil); !errors.Is(err, ErrNilPrincipal) {
		t.Errorf("New(nil): got %v", err)
	}
}

func TestMemberOfDelegates(t *testing.T) {
	lat, reg := newWorld(t)
	reg.Apply(principal.AddPrincipal("alice", lat.MustClass("others")))
	alice, _ := reg.Principal("alice")
	if _, err := reg.Apply(principal.AddGroup("staff")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Apply(principal.AddMember("staff", "alice")); err != nil {
		t.Fatal(err)
	}
	ctx := MustNew(alice)
	if !ctx.MemberOf("staff") || ctx.MemberOf("other") {
		t.Error("MemberOf must delegate to principal")
	}
}

func TestDeriveClampsWithStatic(t *testing.T) {
	lat, reg := newWorld(t)
	reg.Apply(principal.AddPrincipal("alice", lat.MustClass("local", "myself", "dept-1")))
	alice, _ := reg.Principal("alice")
	ctx := MustNew(alice)
	static := lat.MustClass("organization", "dept-1", "dept-2")
	child, err := ctx.Derive("/svc/x", static)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	want := lat.MustClass("organization", "dept-1")
	if !child.Class().Equal(want) {
		t.Errorf("derived class = %s, want %s", child.Class(), want)
	}
	if child.Depth() != 1 || child.Parent() != ctx || child.Site() != "/svc/x" {
		t.Error("derived context chain wrong")
	}
	// Derivation must never amplify.
	if child.Class().Dominates(ctx.Class()) && !child.Class().Equal(ctx.Class()) {
		t.Error("derive amplified authority")
	}
}

func TestDeriveDynamic(t *testing.T) {
	lat, reg := newWorld(t)
	reg.Apply(principal.AddPrincipal("alice", lat.MustClass("organization", "dept-1")))
	alice, _ := reg.Principal("alice")
	ctx := MustNew(alice)
	child, err := ctx.Derive("/svc/y", lattice.Class{})
	if err != nil {
		t.Fatalf("Derive dynamic: %v", err)
	}
	if !child.Class().Equal(ctx.Class()) {
		t.Error("dynamic derive must keep caller class")
	}
}

func TestDeriveForeignStatic(t *testing.T) {
	lat, reg := newWorld(t)
	reg.Apply(principal.AddPrincipal("alice", lat.MustClass("others")))
	alice, _ := reg.Principal("alice")
	ctx := MustNew(alice)
	other, _ := lattice.NewWithUniverse([]string{"x"}, nil)
	if _, err := ctx.Derive("/s", other.MustClass("x")); !errors.Is(err, ErrBadClamp) {
		t.Errorf("foreign static: got %v", err)
	}
}

func TestDeriveDepthLimit(t *testing.T) {
	lat, reg := newWorld(t)
	reg.Apply(principal.AddPrincipal("alice", lat.MustClass("others")))
	alice, _ := reg.Principal("alice")
	ctx := MustNew(alice)
	var err error
	for i := 0; i < MaxDepth; i++ {
		ctx, err = ctx.Derive("/s", lattice.Class{})
		if err != nil {
			t.Fatalf("derive %d: %v", i, err)
		}
	}
	if _, err = ctx.Derive("/s", lattice.Class{}); !errors.Is(err, ErrTooDeep) {
		t.Errorf("beyond MaxDepth: got %v", err)
	}
}

func TestClamp(t *testing.T) {
	lat, reg := newWorld(t)
	reg.Apply(principal.AddPrincipal("alice", lat.MustClass("local", "myself", "dept-1")))
	alice, _ := reg.Principal("alice")
	ctx := MustNew(alice)
	clamped, err := ctx.Clamp(lat.MustClass("others"))
	if err != nil {
		t.Fatalf("Clamp: %v", err)
	}
	if clamped.Class().String() != "others" {
		t.Errorf("clamped class = %s", clamped.Class())
	}
	if clamped.Depth() != ctx.Depth() {
		t.Error("clamp must not extend the chain")
	}
	if _, err := ctx.Clamp(lattice.Class{}); !errors.Is(err, ErrBadClamp) {
		t.Errorf("zero clamp: got %v", err)
	}
}

func TestChainAndString(t *testing.T) {
	lat, reg := newWorld(t)
	reg.Apply(principal.AddPrincipal("alice", lat.MustClass("local")))
	alice, _ := reg.Principal("alice")
	ctx := MustNew(alice)
	c1, _ := ctx.Derive("/svc/a", lattice.Class{})
	c2, _ := c1.Derive("/svc/b", lattice.Class{})
	chain := c2.Chain()
	if len(chain) != 2 || chain[0] != "/svc/a" || chain[1] != "/svc/b" {
		t.Errorf("Chain = %v", chain)
	}
	if got := ctx.Chain(); len(got) != 0 {
		t.Errorf("root Chain = %v", got)
	}
	s := c2.String()
	if !strings.Contains(s, "alice") || !strings.Contains(s, "depth=2") {
		t.Errorf("String = %q", s)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(nil) must panic")
		}
	}()
	MustNew(nil)
}
