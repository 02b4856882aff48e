package names

import (
	"fmt"
	"strings"

	"secext/internal/acl"
	"secext/internal/lattice"
)

// Bulk subtree construction.
//
// Loading a million-node tree through single-bind Applies costs one epoch
// publication (spine clone, compile, atomic store, journal record) per
// node. The E20 and secbench populations need the tree, not a million
// transitions, so BindSubtreeUnchecked builds an entire detached
// subtree with in-place appends — legal because every node in it is
// freshly allocated by this call — and splices it under the parent
// with ONE publication.

// SubtreeSpec describes one node of a bulk-bound subtree. Path is
// slash-separated and relative to the bind parent ("a", "a/b", ...).
// The remaining fields mirror BindSpec (a nil ACL means empty,
// fail-closed).
type SubtreeSpec struct {
	Path       string
	Kind       Kind
	ACL        *acl.ACL
	Class      lattice.Class
	Payload    any
	Multilevel bool
}

// BindSubtreeUnchecked creates every node in specs under parentPath
// with no access checks and a single epoch publication, returning the
// number of nodes created and the epoch version they all landed in.
// Specs must be in parent-before-child order: each spec's containing
// directory is either the bind parent itself (single-component Path)
// or a node created by an EARLIER spec in the same call. Nothing is
// published if any spec fails validation. For bootstrap and load
// generation; production mutation goes through Apply.
func (s *Server) BindSubtreeUnchecked(parentPath string, specs []SubtreeSpec) (int, uint64, error) {
	v, err := s.bindSubtree(parentPath, specs)
	s.admin("bind-subtree-unchecked", parentPath, err)
	if err != nil {
		return 0, 0, err
	}
	return len(specs), v, nil
}

func (s *Server) bindSubtree(parentPath string, specs []SubtreeSpec) (uint64, error) {
	if len(specs) == 0 {
		return 0, nil
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	ep := s.epoch.Load()
	parent, err := resolveIn(ep, nil, lattice.Class{}, parentPath, false)
	if err != nil {
		return 0, err
	}
	if parent.kind.Leaf() {
		return 0, fmt.Errorf("%w: %s", ErrLeaf, parent.Path())
	}

	// The working parent: a clone whose children slice is a private
	// exact-size copy with headroom for the new top-level entries, so
	// appendChild below never touches a published backing array.
	work := parent.clone()
	work.children = append(make([]childRef, 0, len(parent.children)+len(specs)), parent.children...)

	// fresh maps each created node's relative path to its node, so later
	// specs can attach under earlier ones. Only nodes allocated by this
	// call are valid append targets.
	fresh := make(map[string]*Node, len(specs))
	for _, spec := range specs {
		rel := strings.Trim(spec.Path, "/")
		if rel == "" {
			return 0, fmt.Errorf("%w: empty subtree path", ErrBadPath)
		}
		if !spec.Class.Valid() || spec.Class.Lattice() != s.lat {
			return 0, fmt.Errorf("%w: node class must come from the server lattice", ErrBadPath)
		}
		dir, name := "", rel
		if i := strings.LastIndexByte(rel, '/'); i >= 0 {
			dir, name = rel[:i], rel[i+1:]
		}
		if err := ValidComponent(name); err != nil {
			return 0, err
		}
		under := work
		if dir != "" {
			under = fresh[dir]
			if under == nil {
				return 0, fmt.Errorf("%w: %s: parent %q not created by an earlier spec", ErrNotFound, rel, dir)
			}
			if under.kind.Leaf() {
				return 0, fmt.Errorf("%w: %s", ErrLeaf, under.Path())
			}
		}
		if under.child(name) != nil {
			return 0, fmt.Errorf("%w: %s", ErrExists, Join(under.Path(), name))
		}
		childPath := s.strings.intern(Join(under.Path(), name))
		n := &Node{
			path:       childPath,
			kind:       spec.Kind,
			acl:        s.acls.canon(spec.ACL),
			class:      s.classes.canon(spec.Class),
			payload:    spec.Payload,
			multilevel: spec.Multilevel && !spec.Kind.Leaf(),
		}
		appendChild(under, n)
		fresh[rel] = n
	}

	parts, err := SplitPath(parent.Path())
	if err != nil {
		return 0, err
	}
	return s.publishTreeLocked(rebind(ep.root, parts, work), ep.traversal), nil
}
