package decision

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/telemetry"
)

func testLattice(t *testing.T) *lattice.Lattice {
	t.Helper()
	lat, err := lattice.NewWithUniverse([]string{"low", "high"}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	return lat
}

func TestLookupMissThenHit(t *testing.T) {
	lat := testLattice(t)
	cls := lat.MustClass("low")
	c := NewCache(0)

	if _, _, ok := c.Lookup(1, "alice", cls, "/svc/a", acl.Execute); ok {
		t.Fatal("empty cache must miss")
	}
	node := &struct{ name string }{"payload"}
	c.StoreAt(1, "alice", cls, "/svc/a", acl.Execute, node, nil)
	got, err, ok := c.Lookup(1, "alice", cls, "/svc/a", acl.Execute)
	if !ok || err != nil || got != node {
		t.Fatalf("Lookup = %v, %v, %v; want stored node", got, err, ok)
	}

	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Stores != 1 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestCachedDenial(t *testing.T) {
	lat := testLattice(t)
	cls := lat.MustClass("low")
	c := NewCache(0)
	denied := errors.New("denied for test")
	c.StoreAt(1, "mallory", cls, "/svc/a", acl.Write, nil, denied)
	node, err, ok := c.Lookup(1, "mallory", cls, "/svc/a", acl.Write)
	if !ok || node != nil || !errors.Is(err, denied) {
		t.Fatalf("Lookup = %v, %v, %v; want cached denial", node, err, ok)
	}
}

func TestExactKeyMatch(t *testing.T) {
	lat := testLattice(t)
	low, high := lat.MustClass("low"), lat.MustClass("high", "a")
	c := NewCache(0)
	c.StoreAt(1, "alice", low, "/svc/a", acl.Execute, "v", nil)

	// Any differing key component must miss, even if the hash collides.
	misses := []struct {
		subject string
		class   lattice.Class
		path    string
		modes   acl.Mode
	}{
		{"bob", low, "/svc/a", acl.Execute},
		{"alice", high, "/svc/a", acl.Execute},
		{"alice", low, "/svc/b", acl.Execute},
		{"alice", low, "/svc/a", acl.Read},
	}
	for _, m := range misses {
		if _, _, ok := c.Lookup(1, m.subject, m.class, m.path, m.modes); ok {
			t.Errorf("Lookup(%q, %v, %q, %v) hit; want miss", m.subject, m.class, m.path, m.modes)
		}
	}
}

// TestVersionAdvanceKillsEveryEntry: publishing a new snapshot version
// makes every entry stamped with an older one unreachable — the
// snapshot-clock form of whole-cache invalidation.
func TestVersionAdvanceKillsEveryEntry(t *testing.T) {
	lat := testLattice(t)
	cls := lat.MustClass("low")
	c := NewCache(0)
	for i := 0; i < 100; i++ {
		c.StoreAt(1, "alice", cls, fmt.Sprintf("/svc/n%d", i), acl.Execute, i, nil)
	}
	// The protection state moved to version 2; lookups pin version 2.
	for i := 0; i < 100; i++ {
		if _, _, ok := c.Lookup(2, "alice", cls, fmt.Sprintf("/svc/n%d", i), acl.Execute); ok {
			t.Fatalf("entry %d stamped with version 1 served at version 2", i)
		}
	}
}

// TestStaleEntryUnreachable is the TOCTOU guard in snapshot form: a
// verdict computed against a pinned snapshot is stored stamped with
// that snapshot's version. It stays correct *for that version*, and a
// reader that pinned any later version can never see it.
func TestStaleEntryUnreachable(t *testing.T) {
	lat := testLattice(t)
	cls := lat.MustClass("low")
	c := NewCache(0)
	// Decision computed against pinned version 1 while a mutation
	// concurrently published version 2: the store still lands...
	c.StoreAt(1, "alice", cls, "/svc/a", acl.Execute, "v", nil)
	// ...but a reader pinning the current (newer) snapshot misses.
	if _, _, ok := c.Lookup(2, "alice", cls, "/svc/a", acl.Execute); ok {
		t.Fatal("verdict stamped with a stale version was served")
	}
	// A reader still pinned to version 1 may use it: the verdict is
	// correct for that snapshot by construction.
	if _, _, ok := c.Lookup(1, "alice", cls, "/svc/a", acl.Execute); !ok {
		t.Fatal("verdict must hit for the version it was computed against")
	}
}

// TestTinyCacheCollisions forces heavy slot sharing and verifies a
// collision can only evict, never serve the wrong verdict.
func TestTinyCacheCollisions(t *testing.T) {
	lat := testLattice(t)
	cls := lat.MustClass("low")
	c := NewCache(numShards) // one slot per shard
	for i := 0; i < 1000; i++ {
		path := fmt.Sprintf("/svc/n%d", i)
		c.StoreAt(1, "alice", cls, path, acl.Execute, path, nil)
	}
	for i := 0; i < 1000; i++ {
		path := fmt.Sprintf("/svc/n%d", i)
		if v, err, ok := c.Lookup(1, "alice", cls, path, acl.Execute); ok {
			if err != nil || v.(string) != path {
				t.Fatalf("collision served wrong verdict: key %q got %v, %v", path, v, err)
			}
		}
	}
}

func TestNilCacheIsNoop(t *testing.T) {
	var c *Cache
	lat := testLattice(t)
	cls := lat.MustClass("low")
	if _, _, ok := c.Lookup(1, "alice", cls, "/x", acl.Read); ok {
		t.Error("nil cache must miss")
	}
	c.StoreAt(1, "alice", cls, "/x", acl.Read, nil, nil) // must not panic
	if s := c.Stats(); s != (telemetry.CacheStats{}) {
		t.Errorf("nil Stats = %+v", s)
	}
}

func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ req, min int }{
		{0, numShards},
		{1, numShards},
		{100000, 100000},
	} {
		c := NewCache(tc.req)
		if s := c.Stats(); s.Capacity < tc.min {
			t.Errorf("NewCache(%d).Capacity = %d, want >= %d", tc.req, s.Capacity, tc.min)
		}
		if s := c.Stats(); s.Capacity&(s.Capacity-1) != 0 {
			t.Errorf("capacity %d not a power of two", s.Capacity)
		}
	}
}

// TestConcurrentMixedUse hammers the cache from many goroutines doing
// lookups, stores, and version advances at once; run under -race this
// is the memory-safety proof for the lock-free design. The external
// version counter stands in for the name server's snapshot clock.
func TestConcurrentMixedUse(t *testing.T) {
	lat := testLattice(t)
	cls := lat.MustClass("low")
	c := NewCache(1024)
	var version atomic.Uint64
	version.Store(1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				path := fmt.Sprintf("/svc/n%d", i%64)
				switch {
				case i%97 == 0:
					version.Add(1) // a mutation publishes a new snapshot
				case i%3 == 0:
					c.StoreAt(version.Load(), "alice", cls, path, acl.Execute, path, nil)
				default:
					if v, err, ok := c.Lookup(version.Load(), "alice", cls, path, acl.Execute); ok {
						if err != nil || v.(string) != path {
							t.Errorf("wrong verdict under concurrency: %v, %v", v, err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEpochVersionCoversTheGuardStack: the cache key carries no
// separate guard-stack generation anymore — a stack change republishes
// the policy epoch, so the single version comparison is what keeps a
// verdict computed under one stack from being served under another.
func TestEpochVersionCoversTheGuardStack(t *testing.T) {
	lat := testLattice(t)
	cls := lat.MustClass("low")
	c := NewCache(0)
	// Verdict computed against epoch 7 (some guard stack in force).
	c.StoreAt(7, "alice", cls, "/svc/a", acl.Execute, "v", nil)
	// A guard install published epoch 8: the entry is unreachable.
	if _, _, ok := c.Lookup(8, "alice", cls, "/svc/a", acl.Execute); ok {
		t.Fatal("verdict computed under another guard stack was served")
	}
	if _, _, ok := c.Lookup(7, "alice", cls, "/svc/a", acl.Execute); !ok {
		t.Fatal("matching epoch version must hit")
	}
}
