package names

import (
	"sync"
	"unsafe"

	"secext/internal/acl"
)

// Per-epoch footprint accounting.
//
// The north star claims millions of objects; this file makes the claim
// auditable. Every published epoch can report what its tree actually
// costs — node structs, child-slice backing arrays, path/name strings,
// distinct ACL values — and how much of it is newly allocated versus
// structure-shared with the parent epoch. The numbers are estimates in
// the same spirit as CompiledStats.RetainedBytes: struct sizes via
// unsafe.Sizeof, string bytes by length, shared values counted once.
//
// The walk is O(tree) but runs at most once per epoch: the result is
// cached in a per-publication cell (fpCell), so telemetry scrapes after
// the first pay one pointer load. The shared-vs-owned split is computed
// eagerly by the flush (countOwned) with a pointer-pruned diff walk, so
// it costs O(changed) per publication and no parent epoch is kept
// alive for accounting.

// Footprint is one epoch's tree-memory accounting.
type Footprint struct {
	Version uint64 // epoch the numbers describe

	Nodes       int // all nodes, root included
	Leaves      int // nodes of leaf kinds
	Directories int // non-leaf nodes

	OwnedNodes  int // nodes newly allocated by this epoch's publication
	SharedNodes int // nodes pointer-shared with the parent epoch

	ChildSlots      int   // total childRef entries across all directories
	ChildSliceBytes int64 // children backing arrays (cap × sizeof(childRef))
	PathBytes       int64 // canonical path strings (one per node)
	NameBytes       int64 // component-name bytes NOT shared with the node's path backing
	NodeStructBytes int64 // Nodes × sizeof(Node)

	ACLRefs       int     // nodes (every node holds an ACL reference)
	DistinctACLs  int     // distinct *acl.ACL values in the tree
	ACLBytes      int64   // entry storage of the distinct ACLs, counted once
	ACLDedupRatio float64 // ACLRefs / DistinctACLs

	TotalBytes   int64   // sum of the byte columns above
	BytesPerNode float64 // TotalBytes / Nodes
}

// fpCell caches one epoch's lazily computed footprint. It is allocated
// fresh per publication (see flush), so the sync.Once is never copied.
type fpCell struct {
	once sync.Once
	fp   Footprint
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
// per epoch and cached. Calling it on a staged (unpublished) epoch
// computes uncached.
func (ep *Epoch) Footprint() Footprint {
	cell := ep.fp
	if cell == nil {
		return ep.computeFootprint()
	}
	cell.once.Do(func() { cell.fp = ep.computeFootprint() })
	return cell.fp
}

func (ep *Epoch) computeFootprint() Footprint {
	fp := Footprint{Version: ep.version, OwnedNodes: ep.owned}
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

// EpochFootprint bundles the current epoch's footprint with the
// server's intern-table accounting — the write-side state the epoch
// numbers depend on.
type EpochFootprint struct {
	Footprint
	Interner InternStats
	ACLCanon ACLCanonStats
}

// EpochFootprint returns the current epoch's footprint plus the
// server's string-interner and ACL-dedup table statistics. Telemetry
// surfaces it as the secext_epoch_footprint_* gauge family.
func (s *Server) EpochFootprint() EpochFootprint {
	return EpochFootprint{
		Footprint: s.epoch.Load().Footprint(),
		Interner:  s.strings.stats(),
		ACLCanon:  s.acls.stats(),
	}
}
