package replica_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"secext"
	"secext/internal/core"
	"secext/internal/principal"
	"secext/internal/replica"
)

// TestBootstrapIsOneRegistryVersion: a replica replays the snapshot's
// whole registry — 2k principals, 64 groups, every membership — as one
// Registry.Apply, so its registry moves from the empty version 1 to
// version 2, with IDs and memberships equal to the primary's.
func TestBootstrapIsOneRegistryVersion(t *testing.T) {
	p := startPrimary(t, 50*time.Millisecond)
	reg := p.w.Sys.Registry()
	bottom, err := p.w.Sys.Lattice().Bottom()
	if err != nil {
		t.Fatal(err)
	}
	var edits []principal.Edit
	for i := 0; i < 2000; i++ {
		edits = append(edits, principal.AddPrincipal(fmt.Sprintf("u%04d", i), bottom))
	}
	for g := 0; g < 64; g++ {
		edits = append(edits, principal.AddGroup(fmt.Sprintf("team%02d", g)))
	}
	for i := 0; i < 2000; i++ {
		edits = append(edits, principal.AddMember(fmt.Sprintf("team%02d", i%64), fmt.Sprintf("u%04d", i)))
	}
	if _, err := reg.Apply(edits...); err != nil {
		t.Fatal(err)
	}

	r := p.connect(t, 5*time.Second)
	rreg := r.System().Registry()
	if got := rreg.Version(); got != 2 {
		t.Fatalf("bootstrap left the replica registry at v%d, want v2 (one Apply over the empty v1)", got)
	}
	for _, name := range []string{"alice", "u0000", "u1234", "u1999"} {
		pp, err1 := reg.Principal(name)
		rp, err2 := rreg.Principal(name)
		if err1 != nil || err2 != nil || pp.ID() != rp.ID() {
			t.Fatalf("%s: primary %v/%v, replica %v/%v", name, pp, err1, rp, err2)
		}
	}
	if !rreg.IsMember("u1234", "team18") || rreg.IsMember("u1234", "team19") {
		t.Fatal("replica memberships differ from the primary's")
	}
}

// TestDeltaIsOneRegistryVersion: a delta carrying k revocations and j
// grants lands on the replica as one Registry.Apply — one registry
// version — with the revocations in force.
func TestDeltaIsOneRegistryVersion(t *testing.T) {
	p := startPrimary(t, 50*time.Millisecond)
	reg := p.w.Sys.Registry()
	bottom, err := p.w.Sys.Lattice().Bottom()
	if err != nil {
		t.Fatal(err)
	}
	const k, j = 5, 7
	setup := []principal.Edit{principal.AddGroup("staff")}
	for i := 0; i < k+j; i++ {
		setup = append(setup, principal.AddPrincipal(fmt.Sprintf("m%d", i), bottom))
	}
	for i := 0; i < k; i++ {
		setup = append(setup, principal.AddMember("staff", fmt.Sprintf("m%d", i)))
	}
	if _, err := reg.Apply(setup...); err != nil {
		t.Fatal(err)
	}
	r := p.connect(t, 5*time.Second)
	rreg := r.System().Registry()
	before := rreg.Version()

	var churn []principal.Edit
	for i := 0; i < k; i++ {
		churn = append(churn, principal.RemoveMember("staff", fmt.Sprintf("m%d", i)))
	}
	for i := k; i < k+j; i++ {
		churn = append(churn, principal.AddMember("staff", fmt.Sprintf("m%d", i)))
	}
	v, err := reg.Apply(churn...)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "replica to apply the membership delta", func() bool {
		return r.AppliedVersion() >= v
	})
	if got := rreg.Version(); got != before+1 {
		t.Fatalf("delta with %d revocations and %d grants moved the replica registry %d versions, want 1", k, j, got-before)
	}
	for i := 0; i < k+j; i++ {
		if got, want := rreg.IsMember(fmt.Sprintf("m%d", i), "staff"), i >= k; got != want {
			t.Fatalf("m%d in staff = %v on the replica, want %v", i, got, want)
		}
	}
}

// TestPublisherCloseDuringFanout: closing the publisher while a burst of
// transitions is being delivered to two peers never sends on a closed
// peer stream. Run it under -race; before the fan-out goroutine became
// the only closer, Close could close a stream mid-send and panic.
func TestPublisherCloseDuringFanout(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		sys, err := core.NewSystem(core.Options{Levels: []string{"low", "high"}, DisableAudit: true})
		if err != nil {
			t.Fatal(err)
		}
		pub := replica.NewPublisher(sys)
		var drained sync.WaitGroup
		for i := 0; i < 2; i++ {
			peer, _, err := pub.Subscribe("peer")
			if err != nil {
				t.Fatal(err)
			}
			drained.Add(1)
			go func() {
				defer drained.Done()
				for range peer.Ch() {
				}
			}()
		}
		burst := make(chan struct{})
		go func() {
			defer close(burst)
			for i := 0; i < 256; i++ {
				a := secext.NewACL(secext.AllowEveryone(secext.List), secext.Allow(fmt.Sprintf("p%d", i), secext.Read))
				if err := sys.Names().SetACLUnchecked("/", a); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		time.Sleep(time.Duration(iter%5) * 100 * time.Microsecond)
		pub.Close()
		<-burst
		drained.Wait() // every peer stream was closed
	}
}
