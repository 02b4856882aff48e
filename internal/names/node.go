// Package names implements the single, universal, hierarchical name
// space of "Security for Extensible Systems" (Grimm & Bershad, HotOS
// 1997), §2.3, and the central name server that enforces protection on
// it.
//
// The leaves of the name space are the individual functions of system
// services (methods, procedures) and data objects (files); the non-leaf
// nodes are objects, interfaces, domains/packages, and directories.
// Every node carries an access control list and a security class, so the
// same mechanism protects services, extensions, and files — the paper's
// "economy of mechanism".
//
// Access control on the hierarchy follows the paper's file-system
// analogy: the list mode on a non-leaf node determines which names under
// it are visible; the write mode determines whether new entries may be
// added; execute and extend on leaves gate calling and specializing
// services.
package names

import (
	"errors"
	"fmt"
	"strings"

	"secext/internal/acl"
	"secext/internal/lattice"
)

// Kind classifies a node in the universal name space (§2.3 enumerates
// the levels for Java and SPIN; we carry them all).
type Kind uint8

const (
	// KindRoot is the unique root of the name space.
	KindRoot Kind = iota
	// KindDomain groups interfaces, like SPIN domains or Java packages.
	KindDomain
	// KindInterface is a collection of methods/procedures.
	KindInterface
	// KindObject is an instance exposing methods.
	KindObject
	// KindMethod is a leaf: one callable, extendable service entry point.
	KindMethod
	// KindDirectory is a file-system directory mounted into the space.
	KindDirectory
	// KindFile is a leaf data object.
	KindFile

	numKinds = 7
)

var kindNames = [numKinds]string{
	"root", "domain", "interface", "object", "method", "directory", "file",
}

func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Leaf reports whether nodes of this kind may not have children.
func (k Kind) Leaf() bool { return k == KindMethod || k == KindFile }

// Errors returned by name-space operations.
var (
	ErrNotFound = errors.New("names: no such name")
	ErrExists   = errors.New("names: name already bound")
	ErrNotLeaf  = errors.New("names: operation requires a leaf node")
	ErrLeaf     = errors.New("names: leaf nodes cannot have children")
	ErrBadPath  = errors.New("names: malformed path")
	ErrDenied   = errors.New("names: access denied")
	ErrRoot     = errors.New("names: operation not permitted on root")
)

// DeniedError carries the detail of a failed access check. It unwraps to
// ErrDenied. The Why field distinguishes discretionary from mandatory
// failures, which the audit log records.
type DeniedError struct {
	Path string // object the check ran against
	Op   string // requested operation / modes
	Why  string // "acl" or "mac", plus detail
}

func (e *DeniedError) Error() string {
	return fmt.Sprintf("names: access denied: %s on %s (%s)", e.Op, e.Path, e.Why)
}

func (e *DeniedError) Unwrap() error { return ErrDenied }

// Node is one entry in the name space. Nodes are immutable once
// published: a Server mutation never edits a live node, it clones the
// spine from the root to the change and publishes a new snapshot (see
// Epoch). A *Node obtained from any server operation is therefore
// safe to read from any goroutine forever — it describes the node as
// it was in the snapshot the operation ran against. Nodes carry their
// absolute path instead of a parent pointer, so a snapshot is a pure
// acyclic value.
//
// Children are a name-sorted []childRef (see childref.go): successor
// epochs share the slice wholesale with their parent, a spine edit
// clones exactly one level with one allocation, and iteration is
// deterministic without sorting. The struct is deliberately lean: the
// path string is interned by the owning server and the component name
// is derived from it (Name) rather than stored, and the security class
// is a pointer into the server's class dedup table rather than an
// inline value, so a million-node tree pays one pointer per node for
// what are in practice a handful of distinct classes.
type Node struct {
	path       string // absolute canonical path; "/" for the root
	kind       Kind
	multilevel bool
	children   []childRef // sorted by name; empty/nil for leaves
	acl        *acl.ACL
	class      *lattice.Class // canonical; shared across nodes
	payload    any
}

// Multilevel reports whether the node is a multilevel container: a
// non-leaf node that accepts bindings from subjects at any class the
// container's class is dominated by, the classic MLS "upgraded
// directory" mechanism (e.g. an MLS /tmp). Without it, a subject above
// the container's class could never create anything — binding a name is
// MAC-wise a write to the container, and writing down is forbidden. The
// trade-off is explicit: the *names* bound in a multilevel container are
// visible at the container's class even when the nodes behind them are
// not readable, a covert channel conventional MLS systems accept.
func (n *Node) Multilevel() bool { return n.multilevel }

// Name returns the node's final path component ("" for the root). The
// name is a substring of the stored path, not a second field: deriving
// it costs one byte scan and no allocation, and saves a string header
// per node at scale.
func (n *Node) Name() string { return nameOf(n.path) }

// Kind returns the node's kind.
func (n *Node) Kind() Kind { return n.kind }

// Path returns the absolute path the node was published under ("/"
// for the root). A node moved by Rename keeps its old path in old
// snapshots; the new snapshot contains a copy carrying the new path.
func (n *Node) Path() string { return n.path }

// ACL returns a copy of the node's access control list. The copy is
// detached: editing it does not change the node's protection state
// (only a SetACL edit through Server.Apply does).
func (n *Node) ACL() *acl.ACL { return n.acl.Clone() }

// Class returns the node's security class.
func (n *Node) Class() lattice.Class { return *n.class }

// Payload returns the value bound at the node (a service implementation,
// file contents handle, etc.).
func (n *Node) Payload() any { return n.payload }

// childNames returns the names of the node's children. The children
// slice is already name-sorted, so this is one copy with no sort — and
// callers that only iterate (Walk, the wire codec) range the slice
// directly and allocate nothing.
func (n *Node) childNames() []string {
	out := make([]string, len(n.children))
	for i, cr := range n.children {
		out[i] = cr.name()
	}
	return out
}

// ValidPath checks that path is a well-formed absolute path: it starts
// with '/', and every component is non-empty and neither "." nor "..".
// The scan allocates nothing (errors excepted), so callers on the
// mediation hot path can validate without paying SplitPath's slice.
func ValidPath(path string) error {
	if path == "" || path[0] != '/' {
		return fmt.Errorf("%w: %q (must be absolute)", ErrBadPath, path)
	}
	if path == "/" {
		return nil
	}
	rest := path[1:]
	for {
		part := rest
		i := strings.IndexByte(rest, '/')
		if i >= 0 {
			part = rest[:i]
		}
		if part == "" || part == "." || part == ".." {
			return fmt.Errorf("%w: %q", ErrBadPath, path)
		}
		if i < 0 {
			return nil
		}
		rest = rest[i+1:]
	}
}

// SplitPath validates and splits an absolute path into its components.
// The root path "/" yields an empty slice. Components must be non-empty
// and must not be "." or "..". The validity scan runs first, so
// malformed paths and "/" are rejected or answered without allocating;
// only a clean multi-component path pays for the component slice.
func SplitPath(path string) ([]string, error) {
	if err := ValidPath(path); err != nil {
		return nil, err
	}
	if path == "/" {
		return nil, nil
	}
	return strings.Split(path[1:], "/"), nil
}

// ValidComponent reports whether name is usable as a single path
// component.
func ValidComponent(name string) error {
	if name == "" || name == "." || name == ".." || strings.ContainsRune(name, '/') {
		return fmt.Errorf("%w: component %q", ErrBadPath, name)
	}
	return nil
}

// Join joins path components under an absolute prefix.
func Join(prefix string, components ...string) string {
	out := strings.TrimSuffix(prefix, "/")
	for _, c := range components {
		out += "/" + c
	}
	if out == "" {
		return "/"
	}
	return out
}
