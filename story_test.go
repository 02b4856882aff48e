package secext_test

// TestIntegrationStory ties every subsystem together in one narrative:
// an organization boots a world from a policy file, admits extensions
// from three origins, survives a hostile one, revokes a vendor, and
// audits the whole episode. Each numbered act asserts the paper's model
// holding up under composition — the situations §1 motivates, run
// against the full stack rather than isolated packages.

import (
	"strings"
	"testing"

	"secext"
	"secext/internal/names"
)

func TestIntegrationStory(t *testing.T) {
	// --- Act 0: boot from policy. ---
	w, err := secext.NewWorld(secext.WorldOptions{
		Levels:     []string{"others", "organization", "local"},
		Categories: []string{"dept-1", "dept-2"},
		PolicyText: `
levels others organization local
principal it-admin class local:{dept-1,dept-2}
principal dev1     class organization:{dept-1}
principal dev2     class organization:{dept-2}
group developers
member developers dev1
member developers dev2
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := w.Sys
	admin, err := sys.NewContext("it-admin")
	if err != nil {
		t.Fatal(err)
	}
	// Administration of system-low objects happens at system low: a
	// high subject writing a low ACL would be a write-down, so the
	// admin sheds authority first (the standard MLS operator
	// discipline; Clamp is the meet).
	bottom, err := sys.Lattice().Bottom()
	if err != nil {
		t.Fatal(err)
	}
	lowAdmin, err := admin.Clamp(bottom)
	if err != nil {
		t.Fatal(err)
	}

	// --- Act 1: the admin publishes an extendable report service. ---
	err = sys.RegisterService(secext.ServiceSpec{
		Path: "/svc/report",
		ACL: secext.NewACL(
			secext.AllowGroup("developers", secext.Execute),
			secext.Allow("it-admin", secext.Execute|secext.Extend|secext.Administrate),
		),
		Base: secext.Binding{Owner: "base", Handler: func(ctx *secext.Context, arg any) (any, error) {
			return "plain:" + arg.(string), nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// --- Act 2: origin-based admission of two vendor extensions. ---
	adm, err := secext.NewAdmitter(sys, []secext.AdmissionRule{
		{Pattern: "*.corp.example", ClassLabel: "organization:{dept-1}",
			StaticClamp: "organization:{dept-1}", AutoRegister: true},
		{Pattern: "*", ClassLabel: "others", StaticClamp: "others", AutoRegister: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The admitted extensions need extend on the service.
	if _, err := sys.Apply(lowAdmin, names.SetACL("/svc/report", secext.NewACL(
		secext.AllowGroup("developers", secext.Execute),
		secext.Allow("it-admin", secext.Execute|secext.Extend|secext.Administrate),
		secext.Allow("corp-vendor", secext.Extend),
		secext.Allow("wild-vendor", secext.Extend),
	))); err != nil {
		t.Fatal(err)
	}
	if _, err := adm.Admit("tools.corp.example", secext.Manifest{
		Name: "fancy-report", Principal: "corp-vendor",
		Imports: []string{"/svc/mbuf/alloc", "/svc/mbuf/free"},
		Extends: []string{"/svc/report"},
		Code:    func() secext.Extension { return &reportExt{tag: "fancy"} },
	}); err != nil {
		t.Fatalf("admit corp vendor: %v", err)
	}
	// The wild vendor ships a handler that panics.
	if _, err := adm.Admit("cdn.wild.example", secext.Manifest{
		Name: "shady-report", Principal: "wild-vendor",
		Imports: []string{"/svc/mbuf/alloc", "/svc/mbuf/free"},
		Extends: []string{"/svc/report"},
		Code:    func() secext.Extension { return &reportExt{tag: "shady", bomb: true} },
	}); err != nil {
		t.Fatalf("admit wild vendor: %v", err)
	}

	// --- Act 3: dispatch picks per caller; the shady handler's panic
	// is contained. ---
	dev1, _ := sys.NewContext("dev1")
	out, err := sys.Call(dev1, "/svc/report", "q3")
	if err != nil || out != "fancy:q3" {
		t.Fatalf("dev1 report = %v, %v (want the corp extension)", out, err)
	}
	dev2, _ := sys.NewContext("dev2")
	// dev2 (dept-2) dominates only the shady extension's static class
	// (others) — and that handler bombs. The system survives with an
	// attributed error.
	_, err = sys.Call(dev2, "/svc/report", "q3")
	if err == nil || !strings.Contains(err.Error(), "shady-report") {
		t.Fatalf("dev2 report: %v (want contained panic naming shady-report)", err)
	}
	// The panic is on the audit trail.
	panics := 0
	for _, e := range sys.Audit().Recent(0) {
		if strings.Contains(e.Op, "handler-panic owner=shady-report") {
			panics++
		}
	}
	if panics != 1 {
		t.Errorf("audited panics = %d", panics)
	}

	// --- Act 4: the admin revokes the wild vendor; Revalidate evicts
	// its extension; dev2 falls back to the base service. ---
	if _, err := sys.Apply(lowAdmin, names.SetACL("/svc/report", secext.NewACL(
		secext.AllowGroup("developers", secext.Execute),
		secext.Allow("it-admin", secext.Execute|secext.Extend|secext.Administrate),
		secext.Allow("corp-vendor", secext.Extend),
		secext.Deny("wild-vendor", secext.Extend),
	))); err != nil {
		t.Fatal(err)
	}
	dropped, err := sys.Loader().Revalidate()
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || dropped[0] != "shady-report" {
		t.Fatalf("Revalidate dropped %v, want [shady-report]", dropped)
	}
	out, err = sys.Call(dev2, "/svc/report", "q3")
	if err != nil || out != "plain:q3" {
		t.Fatalf("dev2 after eviction = %v, %v", out, err)
	}
	// dev1 still gets the healthy extension.
	if out, _ := sys.Call(dev1, "/svc/report", "q4"); out != "fancy:q4" {
		t.Errorf("dev1 after eviction = %v", out)
	}

	// --- Act 5: the record. Everything above is reconstructible from
	// the audit log and the protection state snapshot. ---
	denials := sys.Audit().Select(secext.AuditQuery{DeniedOnly: true})
	if len(denials) == 0 {
		t.Error("the episode must have left denials on the trail")
	}
	snap, err := secext.SnapshotPolicy(sys)
	if err != nil {
		t.Fatal(err)
	}
	text := snap.Format()
	for _, want := range []string{
		"deny wild-vendor extend",
		"principal corp-vendor class organization:{dept-1}",
		"group developers",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("snapshot missing %q", want)
		}
	}
}

// reportExt decorates reports, optionally exploding.
type reportExt struct {
	tag   string
	bomb  bool
	alloc *secext.Capability
}

func (e *reportExt) Init(lk *secext.Linkage) (map[string]secext.Handler, error) {
	var err error
	if e.alloc, err = lk.Cap("/svc/mbuf/alloc"); err != nil {
		return nil, err
	}
	h := func(ctx *secext.Context, arg any) (any, error) {
		if e.bomb {
			panic("shady extension misbehaves")
		}
		return e.tag + ":" + arg.(string), nil
	}
	return map[string]secext.Handler{"/svc/report": h}, nil
}
