// Staleness security tests: a cached stale grant is a vulnerability,
// not a performance bug. Each case warms the decision cache with a
// granted check through the full reference monitor, revokes the grant
// through a different protection layer, and asserts the VERY NEXT check
// denies — proving the layer's mutation reached the cache generation.
package decision_test

import (
	"testing"

	"secext/internal/acl"
	"secext/internal/core"
	"secext/internal/lattice"
	"secext/internal/monitor"
	"secext/internal/names"
	"secext/internal/principal"
	"secext/internal/subject"
)

func stalenessSystem(t *testing.T) (*core.System, *subject.Context) {
	t.Helper()
	s, err := core.NewSystem(core.Options{
		Levels:     []string{"others", "organization", "local"},
		Categories: []string{"dept-1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.DecisionCache() == nil {
		t.Fatal("decision cache must be on by default")
	}
	if _, err := s.CreateNode(core.NodeSpec{Path: "/obj", Kind: names.KindDomain,
		ACL: acl.New(acl.AllowEveryone(acl.List))}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddPrincipal("worker", "organization"); err != nil {
		t.Fatal(err)
	}
	ctx, err := s.NewContext("worker")
	if err != nil {
		t.Fatal(err)
	}
	return s, ctx
}

func TestRevocationDeniesOnNextCheck(t *testing.T) {
	cases := []struct {
		name string
		// grant sets up the object/rights so that check succeeds.
		grant func(t *testing.T, s *core.System)
		// revoke withdraws the grant through one protection layer.
		revoke func(t *testing.T, s *core.System)
		// path/modes is the access being cached and then revoked.
		path  string
		modes acl.Mode
	}{
		{
			name: "acl-entry-revoked",
			grant: func(t *testing.T, s *core.System) {
				mustBind(t, s, "/obj/doc", acl.New(acl.Allow("worker", acl.Read)))
			},
			revoke: func(t *testing.T, s *core.System) {
				if err := s.Names().SetACLUnchecked("/obj/doc", acl.New()); err != nil {
					t.Fatal(err)
				}
			},
			path:  "/obj/doc",
			modes: acl.Read,
		},
		{
			name: "group-membership-removed",
			grant: func(t *testing.T, s *core.System) {
				if _, err := s.Registry().Apply(principal.AddGroup("staff")); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Registry().Apply(principal.AddMember("staff", "worker")); err != nil {
					t.Fatal(err)
				}
				mustBind(t, s, "/obj/memo", acl.New(acl.AllowGroup("staff", acl.Read)))
			},
			revoke: func(t *testing.T, s *core.System) {
				if _, err := s.Registry().Apply(principal.RemoveMember("staff", "worker")); err != nil {
					t.Fatal(err)
				}
			},
			path:  "/obj/memo",
			modes: acl.Read,
		},
		{
			name: "node-relabeled-above-subject",
			grant: func(t *testing.T, s *core.System) {
				mustBind(t, s, "/obj/note", acl.New(acl.Allow("worker", acl.Read)))
			},
			revoke: func(t *testing.T, s *core.System) {
				// worker is at "organization"; raising the node to
				// "local" makes MAC read fail (no read up).
				high := s.Lattice().MustClass("local")
				if err := s.Names().SetClassUnchecked("/obj/note", high); err != nil {
					t.Fatal(err)
				}
			},
			path:  "/obj/note",
			modes: acl.Read,
		},
		{
			name: "in-place-acl-edit-via-live-hook",
			grant: func(t *testing.T, s *core.System) {
				mustBind(t, s, "/obj/live", acl.New(acl.Allow("worker", acl.Read)))
			},
			revoke: func(t *testing.T, s *core.System) {
				// Replace the grant with an explicit deny entry; the
				// deny-overrides rule then vetoes the cached right.
				if err := s.Names().SetACLUnchecked("/obj/live", acl.New(
					acl.Allow("worker", acl.Read),
					acl.Deny("worker", acl.Read),
				)); err != nil {
					t.Fatal(err)
				}
			},
			path:  "/obj/live",
			modes: acl.Read,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ctx := stalenessSystem(t)
			tc.grant(t, s)

			// Warm the cache: the first check computes and publishes
			// the verdict, the second must be served from cache.
			if _, err := s.CheckData(ctx, tc.path, tc.modes); err != nil {
				t.Fatalf("setup check: %v", err)
			}
			before := s.DecisionCache().Stats()
			if _, err := s.CheckData(ctx, tc.path, tc.modes); err != nil {
				t.Fatalf("warm check: %v", err)
			}
			if after := s.DecisionCache().Stats(); after.Hits <= before.Hits {
				t.Fatalf("second check was not a cache hit: %+v -> %+v", before, after)
			}

			tc.revoke(t, s)

			// The very next check must deny — no revoked grant may be
			// served from cache, ever.
			if _, err := s.CheckData(ctx, tc.path, tc.modes); !core.IsDenied(err) {
				t.Fatalf("check after revocation = %v; want denial", err)
			}
		})
	}
}

// TestUnbindInvalidatesGrant covers the name-space mutation path:
// unbinding the object must kill the cached grant (the next check
// reports not-found, not a stale success).
func TestUnbindInvalidatesGrant(t *testing.T) {
	s, ctx := stalenessSystem(t)
	mustBind(t, s, "/obj/tmp", acl.New(acl.Allow("worker", acl.Read)))
	if _, err := s.CheckData(ctx, "/obj/tmp", acl.Read); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Names().Apply(nil, lattice.Class{}, names.Unbind("/obj/tmp")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckData(ctx, "/obj/tmp", acl.Read); err == nil {
		t.Fatal("check after unbind succeeded from stale cache")
	}
}

// TestDenialAlsoInvalidates covers the opposite direction: a cached
// DENIAL must clear when the right is granted, or revocation-safety
// would come at the price of grants never taking effect.
func TestDenialAlsoInvalidates(t *testing.T) {
	s, ctx := stalenessSystem(t)
	mustBind(t, s, "/obj/doc", acl.New())
	for i := 0; i < 2; i++ { // second check caches the denial
		if _, err := s.CheckData(ctx, "/obj/doc", acl.Read); !core.IsDenied(err) {
			t.Fatalf("check %d = no denial", i)
		}
	}
	if err := s.Names().SetACLUnchecked("/obj/doc", acl.New(acl.Allow("worker", acl.Read))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckData(ctx, "/obj/doc", acl.Read); err != nil {
		t.Fatalf("check after grant = %v; want success", err)
	}
}

func mustBind(t *testing.T, s *core.System, path string, a *acl.ACL) {
	t.Helper()
	if _, err := s.CreateNode(core.NodeSpec{Path: path, Kind: names.KindFile, ACL: a}); err != nil {
		t.Fatal(err)
	}
}

// denyAll is a test guard that vetoes every request.
type denyAll struct{}

func (denyAll) Name() string { return "deny-all" }
func (denyAll) Check(monitor.Request) monitor.Verdict {
	return monitor.Deny("deny-all", "test veto")
}

// TestGuardStackChangeInvalidatesGrant covers the monitor layer: a
// guard install republishes the policy epoch, and the epoch version
// stamps every cache key, so installing a guard must kill every cached
// verdict (the very next check runs the new stack and denies), and
// removing it must kill the cached denial again.
func TestGuardStackChangeInvalidatesGrant(t *testing.T) {
	s, ctx := stalenessSystem(t)
	mustBind(t, s, "/obj/doc", acl.New(acl.Allow("worker", acl.Read)))

	// Warm the cache with a grant computed under the default stack.
	if _, err := s.CheckData(ctx, "/obj/doc", acl.Read); err != nil {
		t.Fatalf("setup check: %v", err)
	}
	before := s.DecisionCache().Stats()
	if _, err := s.CheckData(ctx, "/obj/doc", acl.Read); err != nil {
		t.Fatalf("warm check: %v", err)
	}
	if after := s.DecisionCache().Stats(); after.Hits <= before.Hits {
		t.Fatalf("second check was not a cache hit: %+v -> %+v", before, after)
	}

	// Installing a guard changes the policy; the cached grant computed
	// under the old stack must not survive it.
	remove := s.Monitor().Install(denyAll{})
	if _, err := s.CheckData(ctx, "/obj/doc", acl.Read); !core.IsDenied(err) {
		t.Fatalf("check after guard install = %v; want denial", err)
	}

	// Cache the denial under the widened stack, then remove the guard:
	// the stale denial must die just as dead as the stale grant did.
	if _, err := s.CheckData(ctx, "/obj/doc", acl.Read); !core.IsDenied(err) {
		t.Fatal("second denied check")
	}
	remove()
	if _, err := s.CheckData(ctx, "/obj/doc", acl.Read); err != nil {
		t.Fatalf("check after guard removal = %v; want the grant back", err)
	}
}
