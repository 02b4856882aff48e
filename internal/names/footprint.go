package names

import (
	"sync"
	"unsafe"

	"secext/internal/acl"
	"secext/internal/telemetry"
)

// Per-epoch footprint accounting.
//
// The north star claims millions of objects; this file makes the claim
// auditable. Every published epoch can report what its tree actually
// costs — node structs, child-slice backing arrays, path/name strings,
// distinct ACL values — and how much of it is newly allocated versus
// structure-shared with the parent epoch. The numbers are estimates in
// the same spirit as the compiled view's RetainedBytes: struct sizes via
// unsafe.Sizeof, string bytes by length, shared values counted once.
//
// The walk is O(tree) but runs at most once per epoch: the result is
// cached in a per-publication cell (fpCell), so telemetry scrapes after
// the first pay one pointer load. The shared-vs-owned split is computed
// eagerly by the publisher (countOwned) with a pointer-pruned diff walk, so
// it costs O(changed) per publication and no parent epoch is kept
// alive for accounting.

// fpCell caches one epoch's lazily computed footprint. It is allocated
// fresh per publication (see publishLocked), so the sync.Once is never copied.
type fpCell struct {
	once sync.Once
	fp   telemetry.FootprintStats
}

// countOwned counts the nodes of next's tree that are not pointer-
// shared with prev's tree at the same position. Shared subtrees prune
// the walk, so a typical publication costs O(spine + edits); a full
// replacement (replica bootstrap) costs O(tree).
func countOwned(prev, next *Node) int {
	if prev == next {
		return 0
	}
	owned := 1
	var kids []childRef
	if prev != nil {
		kids = prev.children
	}
	pairChildren(kids, next.children, func(p, n *Node) {
		if n != nil {
			owned += countOwned(p, n)
		}
	})
	return owned
}

// Footprint returns the epoch's tree-memory accounting, computed once
// per epoch and cached; the intern-table fields stay zero (Server.Stats
// fills them). Calling it on an unpublished epoch computes
// uncached.
func (ep *Epoch) Footprint() telemetry.FootprintStats {
	cell := ep.fp
	if cell == nil {
		return ep.computeFootprint()
	}
	cell.once.Do(func() { cell.fp = ep.computeFootprint() })
	return cell.fp
}

func (ep *Epoch) computeFootprint() telemetry.FootprintStats {
	fp := telemetry.FootprintStats{EpochVersion: ep.version, OwnedNodes: ep.owned}
	nodeSize := int64(unsafe.Sizeof(Node{}))
	refSize := int64(unsafe.Sizeof(childRef{}))
	seenACL := make(map[*acl.ACL]struct{}, 64)
	ep.Walk(func(path string, n *Node) {
		fp.Nodes++
		if n.kind.Leaf() {
			fp.Leaves++
		} else {
			fp.Directories++
		}
		fp.ChildSlots += len(n.children)
		fp.ChildSliceBytes += int64(cap(n.children)) * refSize
		fp.PathBytes += int64(len(n.path))
		// Names are derived from paths (Node.Name), never stored, so
		// NameBytes is structurally zero; the field survives so the
		// telemetry shape can show the invariant rather than assume it.
		fp.ACLRefs++
		if _, ok := seenACL[n.acl]; !ok {
			seenACL[n.acl] = struct{}{}
			fp.ACLBytes += int64(n.acl.RetainedBytes())
		}
	})
	fp.DistinctACLs = len(seenACL)
	fp.SharedNodes = fp.Nodes - fp.OwnedNodes
	if fp.SharedNodes < 0 {
		fp.SharedNodes = 0
	}
	fp.NodeStructBytes = int64(fp.Nodes) * nodeSize
	if fp.DistinctACLs > 0 {
		fp.ACLDedupRatio = float64(fp.ACLRefs) / float64(fp.DistinctACLs)
	}
	fp.TotalBytes = fp.NodeStructBytes + fp.ChildSliceBytes + fp.PathBytes + fp.NameBytes + fp.ACLBytes
	if fp.Nodes > 0 {
		fp.BytesPerNode = float64(fp.TotalBytes) / float64(fp.Nodes)
	}
	return fp
}
