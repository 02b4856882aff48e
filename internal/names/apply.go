package names

import (
	"fmt"
	"strings"

	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/monitor"
)

// Edit is one name-space mutation for Server.Apply. Build it with Bind,
// Unbind, Rename, SetACL, SetClass or SetPayload.
type Edit struct {
	op      string   // see Op
	path    string   // the node edited; the parent for a bind
	spec    BindSpec // bind
	newDir  string   // rename: new parent path
	newName string   // rename: new final component
	acl     *acl.ACL
	class   lattice.Class
	payload any
}

// Bind creates a new node under parentPath. Checked, the subject needs
// write mode on the parent (§2.3: "whether an extension can add new
// entries"), MAC write to the parent, and may only label the new node
// with a class it could itself write to (preventing creation of objects
// below the subject's own class, a write-down channel). Multilevel
// containers waive the parent's no-write-down rule
// (monitor.OpContainerBind).
func Bind(parentPath string, spec BindSpec) Edit {
	return Edit{op: "bind", path: parentPath, spec: spec}
}

// Unbind removes the node at path. Checked, the subject needs delete
// mode on the target, write mode on the parent, and MAC write to both
// (the parent's MAC rule is waived for multilevel containers).
// Non-empty nodes cannot be unbound.
func Unbind(path string) Edit { return Edit{op: "unbind", path: path} }

// Rename moves the node at oldPath to newParentPath/newName. Checked,
// the subject needs delete on the node, write on both the old and the
// new parent (multilevel waivers apply to each side independently), and
// the usual MAC rules. The node keeps its ACL, class, payload, and
// children: the name moves, the protection does not.
func Rename(oldPath, newParentPath, newName string) Edit {
	return Edit{op: "rename", path: oldPath, newDir: newParentPath, newName: newName}
}

// SetACL replaces the node's ACL. Changing protection is the
// administrate mode (§2.1) and is MAC-wise a write.
func SetACL(path string, a *acl.ACL) Edit { return Edit{op: "set-acl", path: path, acl: a} }

// SetClass relabels the node. Relabeling violates tranquility, so it is
// gated on administrate mode and the relabel flow rules (a read of the
// old label, a write of the new).
func SetClass(path string, c lattice.Class) Edit {
	return Edit{op: "set-class", path: path, class: c}
}

// SetPayload replaces the value bound at path, gated like SetACL.
// Readers that already resolved the node keep the payload of their
// epoch; the data plane behind a payload handle is shared by reference
// across epochs and does its own locking.
func SetPayload(path string, payload any) Edit {
	return Edit{op: "set-payload", path: path, payload: payload}
}

// Op names the edit's operation: "bind", "unbind", "rename", "set-acl",
// "set-class" or "set-payload".
func (e Edit) Op() string { return e.op }

// Path returns the name the edit affects: the new node's path for a
// bind, the edited (or moved) node's path otherwise.
func (e Edit) Path() string {
	if e.op == "bind" {
		return Join(e.path, e.spec.Name)
	}
	return e.path
}

// Class returns the new label of a set-class edit (the zero Class for
// every other edit).
func (e Edit) Class() lattice.Class { return e.class }

// adminOp is the operation name the admin hook reports for an
// unchecked edit: set-payload has only ever been unchecked.
func (e Edit) adminOp() string {
	if e.op == "set-payload" {
		return e.op
	}
	return e.op + "-unchecked"
}

// EditError reports which edit of an Apply call failed. Its message is
// the failing edit's error unchanged, and it unwraps to that error, so
// errors.Is and errors.As see through it.
type EditError struct {
	Index int  // position of the failing edit in the call
	Edit  Edit // the failing edit
	Err   error
}

func (e *EditError) Error() string { return e.Err.Error() }
func (e *EditError) Unwrap() error { return e.Err }

// Apply is the name server's one mutation entry point: it runs edits as
// one atomic transition of the tree and returns the epoch version they
// landed in — every reader pinning that version or later sees all of
// them, no reader sees some of them.
//
// A non-nil sub makes every edit checked: the subject (DAC) at class
// (MAC) must pass the guard stack for each, as documented on the edit
// constructors. A nil sub makes every edit unchecked, and the admin hook
// then reports each edit after the publication (or only the failing
// edit, with its error).
//
// Each edit resolves against the successor tree as it accumulates, so a
// later edit sees the earlier ones. If any edit fails nothing is
// published, and the error is an *EditError naming it. An empty call
// returns 0.
func (s *Server) Apply(sub acl.Subject, class lattice.Class, edits ...Edit) (uint64, error) {
	if len(edits) == 0 {
		return 0, nil
	}
	v, err := s.applyEdits(sub, class, edits)
	if sub == nil {
		if ee, failed := err.(*EditError); failed {
			s.admin(ee.Edit.adminOp(), ee.Edit.Path(), ee.Err)
		} else {
			for _, e := range edits {
				s.admin(e.adminOp(), e.Path(), nil)
			}
		}
	}
	return v, err
}

// applyEdits builds the successor tree for edits and publishes it,
// returning the landing version.
func (s *Server) applyEdits(sub acl.Subject, class lattice.Class, edits []Edit) (uint64, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	ep := s.epoch.Load()
	// The first edit resolves in ep itself, compiled index included.
	// Every later edit resolves in a scratch copy of ep carrying the
	// accumulating successor root and no compiled view: ep's index
	// describes ep's tree, not the successor.
	view := ep
	var root *Node
	for i := range edits {
		if i == 1 {
			scratch := *ep
			scratch.compiled = nil
			view = &scratch
		}
		if i > 0 {
			view.root = root
		}
		var err error
		if root, err = s.edit(view, sub, class, &edits[i]); err != nil {
			return 0, &EditError{Index: i, Edit: edits[i], Err: err}
		}
	}
	return s.publishTreeLocked(root), nil
}

// edit checks one edit against ep (unless sub is nil) and returns the
// successor of ep's tree with the edit applied. Caller holds writeMu.
func (s *Server) edit(ep *Epoch, sub acl.Subject, class lattice.Class, e *Edit) (*Node, error) {
	switch e.op {
	case "bind":
		return s.bind(ep, sub, class, e.path, e.spec)
	case "unbind":
		return unbind(ep, sub, class, e.path)
	case "rename":
		return s.rename(ep, sub, class, e.path, e.newDir, e.newName)
	}
	n, err := resolveIn(ep, sub, class, e.path, sub != nil)
	if err != nil {
		return nil, err
	}
	if e.op == "set-class" && (!e.class.Valid() || e.class.Lattice() != s.lat) {
		return nil, fmt.Errorf("%w: class must come from the server lattice", ErrBadPath)
	}
	if sub != nil {
		if err := checkNode(ep, n, e.path, sub, class, acl.Administrate, monitor.OpAccess); err != nil {
			return nil, err
		}
		if e.op == "set-class" {
			if v := ep.stack.Check(monitor.Request{
				Subject: sub, Class: class, Object: describe(n, e.path),
				NewClass: e.class, Members: ep.members(), Op: monitor.OpRelabel,
			}); !v.Allow {
				return nil, &DeniedError{Path: e.path, Op: "set-class", Why: v.Reason}
			}
		}
	}
	// The clone keeps the children slice, so only the one node changes;
	// rebind re-clones the spine above it.
	c := n.clone()
	switch e.op {
	case "set-acl":
		c.acl = s.acls.canon(e.acl)
	case "set-class":
		c.class = s.classes.canon(e.class)
	default:
		c.payload = e.payload
	}
	return rebindAt(ep.root, n.path, c), nil
}

// rebindAt is rebind addressed by path, which comes from the tree (or
// joins a validated component onto a tree path), so it splits cleanly.
func rebindAt(root *Node, path string, repl *Node) *Node {
	parts, _ := SplitPath(path)
	return rebind(root, parts, repl)
}

// checkParentWrite checks write mode on parent p at path, where a
// multilevel container waives the no-write-down rule for op.
func checkParentWrite(ep *Epoch, p *Node, path string, sub acl.Subject, class lattice.Class, op monitor.Op) error {
	if !p.multilevel {
		op = monitor.OpAccess
	}
	return checkNode(ep, p, path, sub, class, acl.Write, op)
}

func (s *Server) bind(ep *Epoch, sub acl.Subject, class lattice.Class, parentPath string, spec BindSpec) (*Node, error) {
	parent, err := resolveIn(ep, sub, class, parentPath, sub != nil)
	if err != nil {
		return nil, err
	}
	if sub != nil {
		if err := checkParentWrite(ep, parent, parentPath, sub, class, monitor.OpContainerBind); err != nil {
			return nil, err
		}
		if v := ep.stack.Check(monitor.Request{
			Subject: sub, Class: class, Object: describe(parent, parentPath),
			NewClass: spec.Class, Members: ep.members(), Op: monitor.OpCreate,
		}); !v.Allow {
			return nil, &DeniedError{Path: Join(parentPath, spec.Name), Op: "bind", Why: v.Reason}
		}
	}
	if err := ValidComponent(spec.Name); err != nil {
		return nil, err
	}
	if parent.kind.Leaf() {
		return nil, fmt.Errorf("%w: %s", ErrLeaf, parent.Path())
	}
	if !spec.Class.Valid() || spec.Class.Lattice() != s.lat {
		return nil, fmt.Errorf("%w: node class must come from the server lattice", ErrBadPath)
	}
	if parent.child(spec.Name) != nil {
		return nil, fmt.Errorf("%w: %s", ErrExists, Join(parent.Path(), spec.Name))
	}
	n := &Node{
		path:       s.strings.intern(Join(parent.Path(), spec.Name)),
		kind:       spec.Kind,
		acl:        s.acls.canon(spec.ACL),
		class:      s.classes.canon(spec.Class),
		payload:    spec.Payload,
		multilevel: spec.Multilevel && !spec.Kind.Leaf(),
	}
	return rebindAt(ep.root, n.path, n), nil
}

func unbind(ep *Epoch, sub acl.Subject, class lattice.Class, path string) (*Node, error) {
	n, err := resolveIn(ep, sub, class, path, sub != nil)
	if err != nil {
		return nil, err
	}
	if n.path == "/" {
		return nil, ErrRoot
	}
	if len(n.children) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotEmpty, path)
	}
	if sub != nil {
		parent, err := resolveIn(ep, nil, lattice.Class{}, parentOf(n.path), false)
		if err != nil {
			return nil, err
		}
		if err := checkNode(ep, n, path, sub, class, acl.Delete, monitor.OpAccess); err != nil {
			return nil, err
		}
		if err := checkParentWrite(ep, parent, parentOf(path), sub, class, monitor.OpContainerUnbind); err != nil {
			return nil, err
		}
	}
	return rebindAt(ep.root, n.path, nil), nil
}

// rename detaches the subtree, deep-copies it under its new name and
// paths (published nodes never change, so old epochs keep the old
// paths), then inserts it — all on the private successor tree, so a
// reader sees the wholly-old or the wholly-new tree, never the subtree
// under both names or neither.
func (s *Server) rename(ep *Epoch, sub acl.Subject, class lattice.Class, oldPath, newParentPath, newName string) (*Node, error) {
	if err := ValidComponent(newName); err != nil {
		return nil, err
	}
	checked := sub != nil
	n, err := resolveIn(ep, sub, class, oldPath, checked)
	if err != nil {
		return nil, err
	}
	if n.path == "/" {
		return nil, ErrRoot
	}
	newParent, err := resolveIn(ep, sub, class, newParentPath, checked)
	if err != nil {
		return nil, err
	}
	if newParent.kind.Leaf() {
		return nil, fmt.Errorf("%w: %s", ErrLeaf, newParentPath)
	}
	// A node must not become its own ancestor. Paths in one epoch are
	// canonical, so "inside n's subtree" is a prefix question.
	if newParent.path == n.path || strings.HasPrefix(newParent.path, n.path+"/") {
		return nil, fmt.Errorf("%w: cannot move %s under itself", ErrBadPath, oldPath)
	}
	if newParent.child(newName) != nil {
		return nil, fmt.Errorf("%w: %s", ErrExists, Join(newParentPath, newName))
	}
	if checked {
		if err := checkNode(ep, n, oldPath, sub, class, acl.Delete, monitor.OpAccess); err != nil {
			return nil, err
		}
		oldParent, err := resolveIn(ep, nil, lattice.Class{}, parentOf(n.path), false)
		if err != nil {
			return nil, err
		}
		if err := checkParentWrite(ep, oldParent, parentOf(oldPath), sub, class, monitor.OpContainerUnbind); err != nil {
			return nil, err
		}
		if err := checkParentWrite(ep, newParent, newParentPath, sub, class, monitor.OpContainerUnbind); err != nil {
			return nil, err
		}
	}
	newPath := Join(newParent.path, newName)
	return rebindAt(rebindAt(ep.root, n.path, nil), newPath, relocate(n, newPath, &s.strings)), nil
}

// BindUnchecked is Apply(nil, Bind) returning the node; kept for bench/.
func (s *Server) BindUnchecked(parentPath string, spec BindSpec) (*Node, error) {
	if _, err := s.Apply(nil, lattice.Class{}, Bind(parentPath, spec)); err != nil {
		return nil, err
	}
	return resolveIn(s.epoch.Load(), nil, lattice.Class{}, Join(parentPath, spec.Name), false)
}

// SetACLUnchecked is Apply(nil, SetACL); kept for bench/.
func (s *Server) SetACLUnchecked(path string, newACL *acl.ACL) error {
	_, err := s.Apply(nil, lattice.Class{}, SetACL(path, newACL))
	return err
}

// SetClassUnchecked is Apply(nil, SetClass); kept for bench/.
func (s *Server) SetClassUnchecked(path string, newClass lattice.Class) error {
	_, err := s.Apply(nil, lattice.Class{}, SetClass(path, newClass))
	return err
}
