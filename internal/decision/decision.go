// Package decision implements the mediation fast path: a sharded,
// lock-free cache of access-control verdicts with generation-based
// invalidation.
//
// The paper's model mediates every call, extend, read, and write through
// the central name server (§2.3) and defers the cost question; this
// package answers it. A full check resolves the path inside a pinned
// name-space snapshot, walks per-level visibility, evaluates the ACL,
// and applies the lattice flow rules. The decision, however, is a pure
// function of
//
//	(subject, subject class, object path, requested modes)
//
// and of the protection state (bindings, ACLs, classes, group
// memberships, lattice definitions, guard stack). The cache memoizes
// verdicts keyed by the tuple and stamps each entry with the
// *generation* of the protection state the decision was computed
// against. The generation is not owned by this package: it is the name
// server's policy-epoch version, and because the epoch bundles the name
// tree, the frozen lattice, the frozen registry, and the guard stack
// behind one pointer, that single number covers all of them. Every
// mutation anywhere in the protection state — a bind, unbind or rename, an
// ACL edit, a group membership change, a lattice definition, a relabel,
// a guard install — publishes a new epoch and so advances the version,
// and a single comparison against the caller's pinned version proves a
// cached verdict is still current. This makes
// revocation correctness trivial to reason about: a stale grant cannot
// be served, because the mutation that revoked it necessarily advanced
// the version before the next lookup could pin a snapshot. (Compare
// SPIN's link-time capabilities, which trade exactly this property for
// speed; the cache keeps full-mediation semantics and gets the speed
// back.)
//
// Concurrency design: the cache is a 64-way sharded, direct-mapped table
// of atomic entry pointers. A hit performs zero locks and zero heap
// allocations — one hash, one atomic pointer load, and an exact key
// comparison (hash collisions can evict, never confuse: subject, path,
// modes, and class are all compared exactly). A store publishes an
// immutable entry with a single atomic pointer store; collisions simply
// overwrite (cache eviction, not an error). Invalidation is implicit:
// publishing a new snapshot version makes every entry stamped with an
// older one unreachable, without touching the shards, so an
// invalidation storm costs readers only misses, never stalls.
package decision

import (
	"sync/atomic"

	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/telemetry"
)

const (
	// numShards is the sharding factor. Shard choice comes from the
	// upper hash bits, slot choice from the lower ones, so related keys
	// spread across shards.
	numShards = 64
	// defaultSlotsPerShard gives 64×512 = 32768 entries by default.
	defaultSlotsPerShard = 512
)

// entry is one immutable cached verdict. Published via atomic pointer
// store; never mutated afterwards.
type entry struct {
	gen     uint64        // epoch version this verdict is valid for
	subject string        // principal name
	path    string        // object path
	class   lattice.Class // subject's class at decision time
	modes   acl.Mode      // requested modes
	node    any           // resolved object on grant (opaque to this package)
	err     error         // nil for a grant, the denial error otherwise
}

// shard is one independent slice of the table with its own hit/miss
// counters. The counters are per-shard (and the struct padded) so that
// statistics do not create a single contended cache line on the hot
// path.
type shard struct {
	slots  []atomic.Pointer[entry]
	hits   atomic.Uint64
	misses atomic.Uint64
	_      [40]byte // pad to keep neighboring shards' counters apart
}

// Cache is the sharded decision cache. It holds no generation of its
// own: callers pin a name-space snapshot, pass its version to Lookup
// and StoreAt, and the version comparison does the invalidation. The
// zero Cache is not usable; call NewCache. A nil *Cache is a valid
// no-op: Lookup always misses and StoreAt does nothing, so callers can
// make caching optional without branching.
type Cache struct {
	mask   uint64 // slotsPerShard - 1
	shards [numShards]shard
	stores atomic.Uint64
}

// NewCache creates a cache with roughly the given total capacity
// (rounded to a power-of-two number of slots per shard; 0 means the
// default of 32768 entries).
func NewCache(capacity int) *Cache {
	per := defaultSlotsPerShard
	if capacity > 0 {
		per = 1
		for per*numShards < capacity {
			per <<= 1
		}
	}
	c := &Cache{mask: uint64(per - 1)}
	for i := range c.shards {
		c.shards[i].slots = make([]atomic.Pointer[entry], per)
	}
	return c
}

// fnv64 constants (FNV-1a).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// keyHash folds the key into 64 bits without allocating. The epoch
// version is deliberately left OUT of the hash even though it is part
// of the match (Lookup compares it exactly): the hash only routes, so
// keeping every generation of a logical key in the same slot lets the
// current verdict overwrite its dead predecessor instead of stranding
// stale entries across the table.
func keyHash(subject string, class lattice.Class, path string, modes acl.Mode) uint64 {
	h := uint64(fnvOffset)
	h = hashString(h, subject)
	h ^= 0xff // separator outside the path alphabet
	h *= fnvPrime
	h = hashString(h, path)
	h ^= uint64(modes)
	h *= fnvPrime
	h ^= class.Hash64()
	h *= fnvPrime
	return h
}

// slotFor routes a hash to its shard and slot.
func (c *Cache) slotFor(h uint64) (*shard, *atomic.Pointer[entry]) {
	s := &c.shards[(h>>56)%numShards]
	return s, &s.slots[h&c.mask]
}

// Lookup returns the cached verdict for the request, if one is present
// and was computed against epoch version gen — the version of the
// policy epoch the caller has pinned for this decision. Because the
// epoch bundles name tree, lattice, registry, and guard stack, the one
// version comparison proves the whole verdict current. On a grant, node
// is the value stored by StoreAt and err is nil; on a cached denial,
// err is the original denial error. The fast path takes zero locks and
// performs zero allocations.
func (c *Cache) Lookup(gen uint64, subject string, class lattice.Class, path string, modes acl.Mode) (node any, err error, ok bool) {
	if c == nil {
		return nil, nil, false
	}
	sh, slot := c.slotFor(keyHash(subject, class, path, modes))
	e := slot.Load()
	// Every key component is compared exactly — the hash only routes, it
	// never decides — so a collision can evict an entry but can never
	// cause the wrong verdict to be served. The comparison is written
	// inline (not as an entry method) to keep the hit path free of call
	// boundaries.
	if e == nil || e.gen != gen ||
		e.modes != modes || e.subject != subject ||
		e.path != path || !e.class.Equal(class) {
		sh.misses.Add(1)
		return nil, nil, false
	}
	sh.hits.Add(1)
	return e.node, e.err, true
}

// StoreAt publishes a verdict computed against the pinned epoch with
// version gen. The store is unconditional: because the whole decision
// ran against one immutable epoch, the verdict is correct *for that
// version* by construction — if a mutation published a newer epoch in
// the meantime, later lookups pin the newer version and the entry
// simply never matches (it occupies a slot until overwritten, which is
// eviction, not staleness). node is returned verbatim by Lookup on a
// hit and is opaque to the cache; err non-nil caches a denial.
func (c *Cache) StoreAt(gen uint64, subject string, class lattice.Class, path string, modes acl.Mode, node any, err error) {
	if c == nil {
		return
	}
	_, slot := c.slotFor(keyHash(subject, class, path, modes))
	slot.Store(&entry{
		gen:     gen,
		subject: subject,
		path:    path,
		class:   class,
		modes:   modes,
		node:    node,
		err:     err,
	})
	c.stores.Add(1)
}

// Stats sums the per-shard counters. Invalidations stays zero:
// invalidation is a property of the epoch clock, reported by the name
// server as its publish count.
func (c *Cache) Stats() telemetry.CacheStats {
	var s telemetry.CacheStats
	if c == nil {
		return s
	}
	for i := range c.shards {
		s.Hits += c.shards[i].hits.Load()
		s.Misses += c.shards[i].misses.Load()
	}
	s.Stores = c.stores.Load()
	s.Capacity = numShards * int(c.mask+1)
	return s
}
