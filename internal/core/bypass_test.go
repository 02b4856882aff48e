package core

// The *Unchecked escape hatches bypass the monitor pipeline; the
// system must still leave a trace: each one lands in the audit trail
// as a KindUnchecked administrative event, counted apart from the
// mediated allow/deny totals.

import (
	"testing"

	"secext/internal/acl"
	"secext/internal/audit"
	"secext/internal/lattice"
	"secext/internal/names"
)

func TestUncheckedOpsAreAuditedAsBypasses(t *testing.T) {
	s := newSys(t)
	before := s.Audit().Stats()

	if _, err := s.Names().ResolveUnchecked("/svc/fs/read"); err != nil {
		t.Fatal(err)
	}
	if err := s.Names().SetACLUnchecked("/svc/fs/read",
		acl.New(acl.AllowEveryone(acl.List|acl.Execute))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateNode(NodeSpec{Path: "/svc/tmp", Kind: names.KindObject,
		ACL: acl.New()}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Names().Apply(nil, lattice.Class{}, names.Unbind("/svc/tmp")); err != nil {
		t.Fatal(err)
	}

	after := s.Audit().Stats()
	if got := after.Bypassed - before.Bypassed; got != 4 {
		t.Errorf("Bypassed grew by %d, want 4", got)
	}
	if after.ByKind[audit.KindUnchecked]-before.ByKind[audit.KindUnchecked] != 4 {
		t.Errorf("ByKind[unchecked] mismatch: %+v -> %+v", before, after)
	}
	// Bypasses are not decisions: the mediated counters must not move.
	if after.Total != before.Total || after.Allowed != before.Allowed || after.Denied != before.Denied {
		t.Errorf("decision counters moved: %+v -> %+v", before, after)
	}

	// The events identify the operation and the host as the actor.
	events := s.Audit().Select(audit.Query{Kind: audit.KindUnchecked, HasKind: true})
	if len(events) < 4 {
		t.Fatalf("found %d unchecked events, want >= 4", len(events))
	}
	tail := events[len(events)-4:]
	wantOps := []string{"resolve-unchecked", "set-acl-unchecked", "bind-unchecked", "unbind-unchecked"}
	for i, e := range tail {
		if e.Subject != "host" || e.Op != wantOps[i] {
			t.Errorf("event %d = subject=%q op=%q, want host/%s", i, e.Subject, e.Op, wantOps[i])
		}
	}
}
