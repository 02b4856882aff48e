// Package logsvc is an append-only journal service demonstrating the
// paper's write-append mode (§2.1/§2.2): low-trust subjects report
// upward into a high-classified journal they can neither read nor
// rewrite, while readers at or above the journal's class audit the
// whole stream. Experiment E10 is built on it.
package logsvc

import (
	"fmt"
	"sync"

	"secext/internal/acl"
	"secext/internal/core"
	"secext/internal/dispatch"
	"secext/internal/lattice"
	"secext/internal/names"
	"secext/internal/subject"
)

// Entry is one journal record: who appended, at what class, and what.
type Entry struct {
	Subject string
	Class   string
	Line    string
}

// journalData is the node payload.
type journalData struct {
	mu      sync.RWMutex
	entries []Entry
}

// Journal is one append-only log object plus its service entry points.
type Journal struct {
	sys  *core.System
	path string
	data *journalData
}

// New creates the journal node at path with the given protection and
// registers append and read services under ifacePath. A typical setup
// grants everyone write-append on the journal node, labels it high, and
// reserves read for auditors.
func New(sys *core.System, path, ifacePath string, jACL *acl.ACL, class lattice.Class, svcACL *acl.ACL) (*Journal, error) {
	data := &journalData{}
	j := &Journal{sys: sys, path: path, data: data}
	if _, err := sys.CreateNode(core.NodeSpec{
		Path: path, Kind: names.KindFile, ACL: jACL, Class: class,
	}); err != nil {
		return nil, err
	}
	if _, err := sys.Names().Apply(nil, lattice.Class{}, names.SetPayload(path, data)); err != nil {
		return nil, err
	}
	bot, err := sys.Lattice().Bottom()
	if err != nil {
		return nil, err
	}
	if _, err := sys.CreateNode(core.NodeSpec{
		Path: ifacePath, Kind: names.KindInterface,
		ACL: acl.New(acl.AllowEveryone(acl.List)), Class: bot,
	}); err != nil {
		return nil, err
	}
	handlers := map[string]dispatch.Handler{
		"append": func(ctx *subject.Context, arg any) (any, error) {
			line, ok := arg.(string)
			if !ok {
				return nil, fmt.Errorf("logsvc: bad request type %T", arg)
			}
			return nil, j.Append(ctx, line)
		},
		"read": func(ctx *subject.Context, arg any) (any, error) {
			return j.Read(ctx)
		},
	}
	for _, name := range []string{"append", "read"} {
		err := sys.RegisterService(core.ServiceSpec{
			Path: names.Join(ifacePath, name), ACL: svcACL, Class: bot,
			Base: dispatch.Binding{Owner: "logsvc", Handler: handlers[name]},
		})
		if err != nil {
			return nil, err
		}
	}
	return j, nil
}

// Append adds a line to the journal. Requires only write-append on the
// journal node: callers below the journal's class can report up without
// being able to read or destroy the record.
func (j *Journal) Append(ctx *subject.Context, line string) error {
	if _, err := j.sys.CheckData(ctx, j.path, acl.WriteAppend); err != nil {
		return err
	}
	j.data.mu.Lock()
	defer j.data.mu.Unlock()
	j.data.entries = append(j.data.entries, Entry{
		Subject: ctx.SubjectName(),
		Class:   ctx.Class().String(),
		Line:    line,
	})
	return nil
}

// Read returns a copy of the full journal. Requires read: only
// subjects dominating the journal's class see it.
func (j *Journal) Read(ctx *subject.Context) ([]Entry, error) {
	if _, err := j.sys.CheckData(ctx, j.path, acl.Read); err != nil {
		return nil, err
	}
	j.data.mu.RLock()
	defer j.data.mu.RUnlock()
	out := make([]Entry, len(j.data.entries))
	copy(out, j.data.entries)
	return out, nil
}

// Truncate destructively clears the journal. Destructive, so it needs
// read and write (class equality under MAC), like fsys.Write.
func (j *Journal) Truncate(ctx *subject.Context) error {
	if _, err := j.sys.CheckData(ctx, j.path, acl.Read|acl.Write); err != nil {
		return err
	}
	j.data.mu.Lock()
	defer j.data.mu.Unlock()
	j.data.entries = nil
	return nil
}

// Len returns the number of entries with no access check (harness use).
func (j *Journal) Len() int {
	j.data.mu.RLock()
	defer j.data.mu.RUnlock()
	return len(j.data.entries)
}

// Path returns the journal node's path.
func (j *Journal) Path() string { return j.path }
