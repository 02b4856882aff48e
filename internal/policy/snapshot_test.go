package policy

import (
	"strings"
	"testing"

	"secext/internal/core"
	"secext/internal/dispatch"
	"secext/internal/principal"
	"secext/internal/subject"
)

func buildOrg(t *testing.T) *core.System {
	t.Helper()
	p, err := ParseString(validOrgPolicy)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := p.Build(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.AttachBase("/svc/fs/read", dispatch.Binding{
		Owner:   "base",
		Handler: func(ctx *subject.Context, arg any) (any, error) { return "r", nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSnapshotCapturesState(t *testing.T) {
	sys := buildOrg(t)
	snap, err := Snapshot(sys)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	text := snap.Format()
	for _, want := range []string{
		"levels others organization local",
		"categories myself dept-1 dept-2 outside",
		"principal user class local:{dept-1,dept-2,myself,outside}",
		"principal applet3 class organization:{dept-1,dept-2}",
		"group org-applets",
		"member org-applets applet1",
		"service /svc/fs/read class others", // base attached -> service
		"node /files directory multilevel class others",
		"acl /svc/fs/read allow @org-applets execute,list",
		"acl /files allow * write,list",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("snapshot missing %q:\n%s", want, text)
		}
	}
}

func TestSnapshotRoundTripFixedPoint(t *testing.T) {
	sys := buildOrg(t)
	snapA, err := Snapshot(sys)
	if err != nil {
		t.Fatal(err)
	}
	textA := snapA.Format()

	// Rebuild from the snapshot, re-attach the same base, and snapshot
	// again: the protection state must be a fixed point.
	sys2, err := snapA.Build(core.Options{})
	if err != nil {
		t.Fatalf("rebuild: %v\n%s", err, textA)
	}
	err = sys2.AttachBase("/svc/fs/read", dispatch.Binding{
		Owner:   "base",
		Handler: func(ctx *subject.Context, arg any) (any, error) { return "r", nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := Snapshot(sys2)
	if err != nil {
		t.Fatal(err)
	}
	if textB := snapB.Format(); textB != textA {
		t.Errorf("snapshot not a fixed point:\n--- A ---\n%s\n--- B ---\n%s", textA, textB)
	}

	// Decisions survive the round trip.
	ctx, err := sys2.NewContext("applet1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.Call(ctx, "/svc/fs/read", nil); err != nil {
		t.Errorf("applet1 call after round trip: %v", err)
	}
	out, err := sys2.NewContext("outside")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.Call(out, "/svc/fs/read", nil); !core.IsDenied(err) {
		t.Errorf("outsider call after round trip: %v", err)
	}
}

func TestSnapshotNestedGroups(t *testing.T) {
	sys, err := core.NewSystem(core.Options{Levels: []string{"l"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddPrincipal("a", "l"); err != nil {
		t.Fatal(err)
	}
	reg := sys.Registry()
	for _, g := range []string{"inner", "outer"} {
		if _, err := reg.Apply(principal.AddGroup(g)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Apply(principal.AddMember("inner", "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Apply(principal.AddMember("outer", "inner")); err != nil {
		t.Fatal(err)
	}
	snap, err := Snapshot(sys)
	if err != nil {
		t.Fatal(err)
	}
	sys2, err := snap.Build(core.Options{})
	if err != nil {
		t.Fatalf("rebuild: %v\n%s", err, snap.Format())
	}
	p, err := sys2.Registry().Principal("a")
	if err != nil {
		t.Fatal(err)
	}
	if !p.MemberOf("outer") {
		t.Error("nested membership lost in round trip")
	}
}
