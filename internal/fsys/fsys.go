// Package fsys is an in-memory hierarchical file service mounted into
// the universal name space. Files are the paper's running example of
// protected objects: its §2.2 walk-through is about which applets can
// read which files, and §2.3 argues that one name space should protect
// files and services alike. Every file and directory here is a name-
// space node carrying an ACL and a security class; every operation is
// authorized by the reference monitor's single check path.
//
// Write semantics follow the paper's cautious reading of the
// *-property: destructive writes (Write, Truncate) require read AND
// write — i.e. the subject's class equals the file's — so that "subjects
// at a lower level of trust" cannot "blindly overwrite objects at a
// higher level of trust"; Append requires only write-append, the pure
// upgrade channel.
package fsys

import (
	"errors"
	"fmt"
	"sync"

	"secext/internal/acl"
	"secext/internal/core"
	"secext/internal/lattice"
	"secext/internal/names"
	"secext/internal/subject"
)

// Errors returned by the file service.
var (
	ErrNotFile = errors.New("fsys: not a file")
	ErrNotDir  = errors.New("fsys: not a directory")
)

// fileData is the payload of a file node. Node payloads are shared
// references, so the data carries its own lock.
type fileData struct {
	mu      sync.RWMutex
	content []byte
}

// Info describes a file or directory.
type Info struct {
	Path  string
	Kind  names.Kind
	Size  int
	Class lattice.Class
}

// FS is a file service rooted at one directory node of the name space.
type FS struct {
	sys  *core.System
	root string
}

// Mount creates the root directory node and returns the file service.
// Bootstrap operation: the mount itself is unchecked, everything after
// is mediated. The mount root is a multilevel directory (like an MLS
// /tmp): subjects at any class dominating the root's may create entries
// in it, each entry then protected at its own class.
func Mount(sys *core.System, root string, rootACL *acl.ACL, class lattice.Class) (*FS, error) {
	if _, err := sys.CreateNode(core.NodeSpec{
		Path: root, Kind: names.KindDirectory, ACL: rootACL, Class: class,
		Multilevel: true,
	}); err != nil {
		return nil, err
	}
	return &FS{sys: sys, root: root}, nil
}

// MkdirMultilevel creates a multilevel directory: entries may be bound
// by any subject dominating the directory's class (see
// names.Node.Multilevel for the covert-channel trade-off).
func (f *FS) MkdirMultilevel(ctx *subject.Context, path string, a *acl.ACL, class lattice.Class) error {
	parent, name, err := splitParent(path)
	if err != nil {
		return err
	}
	_, err = f.sys.Apply(ctx, names.Bind(parent, names.BindSpec{
		Name: name, Kind: names.KindDirectory, ACL: a, Class: class, Multilevel: true,
	}))
	return err
}

// Root returns the mount point path.
func (f *FS) Root() string { return f.root }

// Mkdir creates a directory. The subject needs write on the parent; the
// new directory's class must dominate the subject's (no write-down).
func (f *FS) Mkdir(ctx *subject.Context, path string, a *acl.ACL, class lattice.Class) error {
	parent, name, err := splitParent(path)
	if err != nil {
		return err
	}
	_, err = f.sys.Apply(ctx, names.Bind(parent, names.BindSpec{
		Name: name, Kind: names.KindDirectory, ACL: a, Class: class,
	}))
	return err
}

// Create creates an empty file with the given protection.
func (f *FS) Create(ctx *subject.Context, path string, a *acl.ACL, class lattice.Class) error {
	parent, name, err := splitParent(path)
	if err != nil {
		return err
	}
	_, err = f.sys.Apply(ctx, names.Bind(parent, names.BindSpec{
		Name: name, Kind: names.KindFile, ACL: a, Class: class,
		Payload: &fileData{},
	}))
	return err
}

// file resolves a checked node and asserts it is a file.
func file(n *names.Node) (*fileData, error) {
	d, ok := n.Payload().(*fileData)
	if !ok || n.Kind() != names.KindFile {
		return nil, fmt.Errorf("%w: %s", ErrNotFile, n.Path())
	}
	return d, nil
}

// Read returns a copy of the file contents (read mode; subject must
// dominate the file's class).
func (f *FS) Read(ctx *subject.Context, path string) ([]byte, error) {
	n, err := f.sys.CheckData(ctx, path, acl.Read)
	if err != nil {
		return nil, err
	}
	d, err := file(n)
	if err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]byte, len(d.content))
	copy(out, d.content)
	return out, nil
}

// Write destructively replaces the file contents. Requires read and
// write modes, which under MAC means the subject's class equals the
// file's: blind overwrites from below are impossible (§2.2).
func (f *FS) Write(ctx *subject.Context, path string, data []byte) error {
	n, err := f.sys.CheckData(ctx, path, acl.Read|acl.Write)
	if err != nil {
		return err
	}
	d, err := file(n)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.content = append(d.content[:0:0], data...)
	return nil
}

// Append adds data to the end of the file. Requires only write-append:
// a low subject may add to a high file without being able to read or
// destroy it.
func (f *FS) Append(ctx *subject.Context, path string, data []byte) error {
	n, err := f.sys.CheckData(ctx, path, acl.WriteAppend)
	if err != nil {
		return err
	}
	d, err := file(n)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.content = append(d.content, data...)
	return nil
}

// Truncate empties the file; destructive, so same rule as Write.
func (f *FS) Truncate(ctx *subject.Context, path string) error {
	n, err := f.sys.CheckData(ctx, path, acl.Read|acl.Write)
	if err != nil {
		return err
	}
	d, err := file(n)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.content = nil
	return nil
}

// Remove deletes a file or empty directory (delete on the node, write
// on the parent).
func (f *FS) Remove(ctx *subject.Context, path string) error {
	_, err := f.sys.Apply(ctx, names.Unbind(path))
	return err
}

// Rename moves a file or directory to a new path. The node keeps its
// ACL and class; only the name moves.
func (f *FS) Rename(ctx *subject.Context, oldPath, newPath string) error {
	parent, name, err := splitParent(newPath)
	if err != nil {
		return err
	}
	_, err = f.sys.Apply(ctx, names.Rename(oldPath, parent, name))
	return err
}

// List enumerates a directory.
func (f *FS) List(ctx *subject.Context, path string) ([]string, error) {
	return f.sys.List(ctx, path)
}

// Stat describes the object at path (read mode not required; list-level
// visibility along the path plus read OR list on the node itself).
func (f *FS) Stat(ctx *subject.Context, path string) (Info, error) {
	n, err := f.sys.Resolve(ctx, path)
	if err != nil {
		return Info{}, err
	}
	info := Info{Path: n.Path(), Kind: n.Kind(), Class: n.Class()}
	if d, ok := n.Payload().(*fileData); ok {
		d.mu.RLock()
		info.Size = len(d.content)
		d.mu.RUnlock()
	}
	return info, nil
}

func splitParent(path string) (parent, name string, err error) {
	parts, err := names.SplitPath(path)
	if err != nil {
		return "", "", err
	}
	if len(parts) == 0 {
		return "", "", names.ErrRoot
	}
	return names.Join("/", parts[:len(parts)-1]...), parts[len(parts)-1], nil
}
