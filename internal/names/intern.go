package names

import (
	"maps"
	"strings"
	"sync"
	"sync/atomic"

	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/telemetry"
)

// Write-side interning.
//
// Published epochs share every untouched subtree, but the strings and
// ACL values attached to *fresh* nodes used to be allocated anew on
// every mutation: a rename re-keyed a whole subtree with brand-new path
// strings, a replica bootstrap decoded one string and one ACL per wire
// node, and a policy re-install cloned textually identical ACLs again
// and again. At 10^6 nodes that duplication dominates the footprint, so
// the server routes every string and ACL that enters the tree through
// two per-server intern tables:
//
//   - interner canonicalizes path strings. A path re-created by a
//     rename round-trip, a delta upsert, or a re-bind lands on the one
//     canonical allocation, and component names are carved out of the
//     interned path as substrings (nameOf), so names cost zero extra
//     bytes.
//   - aclCanon canonicalizes *acl.ACL values by their textual form
//     (acl.String round-trips exactly, see wire.go). Deduping at the
//     point a fresh ACL enters the tree compounds with the compiled
//     epochs' pointer-identity summary reuse (compiled.go) and with the
//     wire diff's pointer comparison (contentDiffers): more shared
//     pointers mean more freeze-time reuse and smaller deltas.
//
// Both tables are bounded: when they exceed their cap they are reset
// wholesale rather than evicted entry-by-entry — epochs keep the
// strings and ACLs they reference alive regardless, the table only
// loses dedup opportunity until it refills.

// internCap bounds the interner's table; aclCanonCap bounds the ACL
// table. Resets are counted so telemetry can flag a thrashing table.
// Variables, not constants, so tests can shrink them to exercise the
// reset path.
var (
	internCap   = 1 << 20
	aclCanonCap = 1 << 16
)

// interner is a bounded string intern table. The zero value is ready to
// use; a nil *interner passes strings through unchanged (free functions
// outside a server use it that way).
type interner struct {
	mu     sync.Mutex
	table  map[string]string
	bytes  int64 // unique bytes currently held by the table
	hits   atomic.Uint64
	misses atomic.Uint64
	resets atomic.Uint64
}

// intern returns the canonical copy of s, installing s itself on first
// sight.
func (in *interner) intern(s string) string {
	if in == nil {
		return s
	}
	in.mu.Lock()
	if c, ok := in.table[s]; ok {
		in.mu.Unlock()
		in.hits.Add(1)
		return c
	}
	if in.table == nil || len(in.table) >= internCap {
		if in.table != nil {
			in.resets.Add(1)
		}
		in.table = make(map[string]string, 1024)
		in.bytes = 0
	}
	in.table[s] = s
	in.bytes += int64(len(s))
	in.mu.Unlock()
	in.misses.Add(1)
	return s
}

// reserve makes room for n more strings when they outnumber the table,
// so a bulk build of n fresh paths (a snapshot install) grows the table
// once instead of rehashing it at every doubling.
func (in *interner) reserve(n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n <= len(in.table) || len(in.table)+n > internCap {
		return
	}
	grown := make(map[string]string, len(in.table)+n)
	maps.Copy(grown, in.table)
	in.table = grown
}

// stats snapshots the table into fp's interner fields.
func (in *interner) stats(fp *telemetry.FootprintStats) {
	if in == nil {
		return
	}
	in.mu.Lock()
	fp.InternedStrings, fp.InternedBytes = len(in.table), in.bytes
	in.mu.Unlock()
	fp.InternHits = in.hits.Load()
	fp.InternMisses = in.misses.Load()
	fp.InternResets = in.resets.Load()
}

// nameOf returns the final component of a canonical absolute path as a
// substring of path — interned paths therefore carry their component
// name without a second allocation ("" for the root path).
func nameOf(path string) string {
	if path == "/" {
		return ""
	}
	i := strings.LastIndexByte(path, '/')
	return path[i+1:]
}

// aclCanon is a bounded ACL dedup table keyed by textual form. The
// zero value is ready; a nil *aclCanon clones instead (preserving the
// pre-dedupe contract that the tree never aliases caller memory).
type aclCanon struct {
	mu     sync.Mutex
	table  map[string]*acl.ACL
	dedups atomic.Uint64
	resets atomic.Uint64
}

// canon returns the canonical *acl.ACL equal to a. The canonical value
// is a private clone, so callers may keep mutating their own copy; a
// nil a canonicalizes to the empty ACL (fail-closed, matching Bind).
func (c *aclCanon) canon(a *acl.ACL) *acl.ACL {
	if a == nil {
		a = acl.New()
	}
	if c == nil {
		return a.Clone()
	}
	key := a.String()
	c.mu.Lock()
	if v, ok := c.table[key]; ok {
		c.mu.Unlock()
		c.dedups.Add(1)
		return v
	}
	if c.table == nil || len(c.table) >= aclCanonCap {
		if c.table != nil {
			c.resets.Add(1)
		}
		c.table = make(map[string]*acl.ACL, 64)
	}
	v := a.Clone()
	c.table[key] = v
	c.mu.Unlock()
	return v
}

// classCanonCap bounds the class canon table. Distinct classes are
// bounded by the lattice universe in practice; the cap is a backstop
// against pathological universes, handled like the other tables: reset
// wholesale and let the working set repopulate.
var classCanonCap = 1 << 12

// classCanon is a bounded security-class dedup table keyed by the
// class's canonical label. Nodes store *lattice.Class so the tree pays
// one pointer per node instead of an inline class value (level word
// plus category bitset); the distinct class values themselves are
// shared server-wide through this table. A nil *classCanon boxes a
// private copy instead (for wire-decode contexts without a server).
type classCanon struct {
	mu    sync.Mutex
	table map[string]*lattice.Class
}

// canon returns the canonical *lattice.Class equal to c. The canonical
// value is a private copy, never an alias of caller storage.
func (cc *classCanon) canon(c lattice.Class) *lattice.Class {
	if cc == nil {
		boxed := c
		return &boxed
	}
	key := c.String()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if v, ok := cc.table[key]; ok {
		return v
	}
	if cc.table == nil || len(cc.table) >= classCanonCap {
		cc.table = make(map[string]*lattice.Class, 16)
	}
	boxed := c
	cc.table[key] = &boxed
	return &boxed
}

// stats snapshots the table into fp's ACL-canon fields.
func (c *aclCanon) stats(fp *telemetry.FootprintStats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	fp.ACLCanonDistinct = uint64(len(c.table))
	c.mu.Unlock()
	fp.ACLCanonDedups = c.dedups.Load()
	fp.ACLCanonResets = c.resets.Load()
}
