package names

import (
	"hash/maphash"
	"maps"
)

// Copy-on-write path index.
//
// A compiled epoch resolves a path with one probe of a flat
// path→entry index. Successor epochs change a handful of entries (an
// ACL edit rewrites the leaf and its spine), so the index is split into
// 2^k shards, each an ordinary map, chosen by the top bits of a seeded
// string hash. A build starts from the parent's shard slice and clones
// only the shards it writes: a single-leaf edit pays for the shards its
// spine lands in, not for the whole tree. The shard count follows the
// entry count (about indexShardLoad entries per shard), so neither a
// ten-node test tree nor a million-node build needs tuning. A one-shard
// index (a small tree) skips the hash and probes its map directly.

// indexShardLoad is the mean shard size a resize aims for. The count
// is resized when the mean drifts a factor of four either way, so a
// growing tree reshards O(log n) times and the amortized cost per
// insert stays constant.
const indexShardLoad = 128

// pathIndex is one epoch's immutable path→entry index.
type pathIndex struct {
	seed   maphash.Seed
	shift  uint // 64 - log2(len(shards))
	shards []map[string]*centry
	n      int
}

// shardOf returns the index of the shard path belongs in.
func (x *pathIndex) shardOf(path string) int {
	if len(x.shards) == 1 {
		return 0
	}
	return int(maphash.String(x.seed, path) >> x.shift)
}

// get returns the entry at path.
func (x *pathIndex) get(path string) (*centry, bool) {
	e, ok := x.shards[x.shardOf(path)][path]
	return e, ok
}

// each calls fn for every entry, in no particular order.
func (x *pathIndex) each(fn func(path string, e *centry)) {
	for _, m := range x.shards {
		for p, e := range m {
			fn(p, e)
		}
	}
}

// shardsFor is the power-of-two shard count for n entries.
func shardsFor(n int) int {
	s := 1
	for s*indexShardLoad < n {
		s <<= 1
	}
	return s
}

// indexBuilder derives a successor index from a parent's, cloning a
// shard on its first write. Reads see the index as built so far.
type indexBuilder struct {
	pathIndex
	owned []bool
}

// newIndexBuilder starts from prev (nil: an empty index).
func newIndexBuilder(prev *pathIndex) *indexBuilder {
	if prev == nil {
		b := &indexBuilder{pathIndex: pathIndex{seed: maphash.MakeSeed()}}
		b.reshard(1)
		return b
	}
	b := &indexBuilder{pathIndex: *prev, owned: make([]bool, len(prev.shards))}
	b.shards = append([]map[string]*centry(nil), prev.shards...)
	return b
}

// shard returns the writable map path belongs in.
func (b *indexBuilder) shard(path string) map[string]*centry {
	i := b.shardOf(path)
	if !b.owned[i] {
		b.shards[i] = maps.Clone(b.shards[i])
		b.owned[i] = true
	}
	return b.shards[i]
}

// set binds path to e.
func (b *indexBuilder) set(path string, e *centry) {
	m := b.shard(path)
	k := len(m)
	m[path] = e
	if len(m) > k {
		b.n++
		if b.n > 4*indexShardLoad*len(b.shards) {
			b.reshard(shardsFor(b.n))
		}
	}
}

// del removes path.
func (b *indexBuilder) del(path string) {
	m := b.shard(path)
	k := len(m)
	delete(m, path)
	b.n -= k - len(m)
}

// reshard redistributes every entry over s fresh (owned) shards.
func (b *indexBuilder) reshard(s int) {
	old := b.shards
	b.shards = make([]map[string]*centry, s)
	b.owned = make([]bool, s)
	b.shift = 64
	for k := s; k > 1; k >>= 1 {
		b.shift--
	}
	per := b.n/s + 1
	for i := range b.shards {
		b.shards[i] = make(map[string]*centry, per)
		b.owned[i] = true
	}
	for _, m := range old {
		for p, e := range m {
			b.shard(p)[p] = e
		}
	}
}

// finish returns the built index, first shrinking the shard count if
// deletions left the mean shard far below indexShardLoad.
func (b *indexBuilder) finish() *pathIndex {
	if len(b.shards) > 1 && 4*b.n < indexShardLoad*len(b.shards) {
		b.reshard(shardsFor(b.n))
	}
	x := b.pathIndex
	return &x
}
