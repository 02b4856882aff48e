// Package threadsvc is the protected thread service: threads are named,
// first-class objects in the universal name space, each carrying an ACL
// and the security class of its creator. It exists to make the paper's
// §1.2 indictment of the Java sandbox executable — McGraw & Felten's
// ThreadMurder applet "kills the threads of all other applets that are
// running in the same sandbox" because Java's thread objects are not
// access-controlled. Here, killing a thread is a write to its node, so
// both the ACL and the lattice stand between a hostile applet and its
// victims (scenario S2 in DESIGN.md).
package threadsvc

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"secext/internal/acl"
	"secext/internal/core"
	"secext/internal/dispatch"
	"secext/internal/lattice"
	"secext/internal/names"
	"secext/internal/subject"
)

// Errors returned by the thread service.
var (
	ErrNoThread = errors.New("threadsvc: no such thread")
	ErrDead     = errors.New("threadsvc: thread already dead")
)

// Thread is one simulated thread of control. The service models the
// lifecycle (spawn/kill/join) rather than actual scheduling: the
// security question is who may do what to whom, not how threads run.
type Thread struct {
	ID    int
	Name  string
	Owner string
	Class lattice.Class

	mu       sync.Mutex
	alive    bool
	killedBy string
	done     chan struct{}
}

// Alive reports whether the thread is still running.
func (t *Thread) Alive() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.alive
}

// KilledBy returns the principal that killed the thread ("" while
// alive or if it exited on its own).
func (t *Thread) KilledBy() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.killedBy
}

// Done returns a channel closed when the thread terminates.
func (t *Thread) Done() <-chan struct{} { return t.done }

func (t *Thread) kill(by string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.alive {
		return fmt.Errorf("%w: %d", ErrDead, t.ID)
	}
	t.alive = false
	t.killedBy = by
	close(t.done)
	return nil
}

// Manager is the thread service. Threads live under dir in the name
// space; each thread node's payload is its *Thread.
type Manager struct {
	sys *core.System
	dir string

	mu      sync.Mutex
	nextID  int
	threads map[int]*Thread
}

// KillRequest is the argument of the kill service: the ID of the victim.
type KillRequest struct {
	ID int
}

// SpawnRequest is the argument of the spawn service.
type SpawnRequest struct {
	Name string
}

// New creates the thread service with its container directory at dir
// (multilevel, so principals at any class can spawn) and registers the
// spawn, kill, and list entry points under ifacePath.
func New(sys *core.System, dir, ifacePath string, svcACL *acl.ACL) (*Manager, error) {
	bot, err := sys.Lattice().Bottom()
	if err != nil {
		return nil, err
	}
	if _, err := sys.CreateNode(core.NodeSpec{
		Path: dir, Kind: names.KindObject,
		ACL:        acl.New(acl.AllowEveryone(acl.List | acl.Write)),
		Class:      bot,
		Multilevel: true,
	}); err != nil {
		return nil, err
	}
	m := &Manager{sys: sys, dir: dir, threads: make(map[int]*Thread)}

	if _, err := sys.CreateNode(core.NodeSpec{
		Path: ifacePath, Kind: names.KindInterface,
		ACL: acl.New(acl.AllowEveryone(acl.List)), Class: bot,
	}); err != nil {
		return nil, err
	}
	services := map[string]dispatch.Handler{
		"spawn": m.spawnHandler,
		"kill":  m.killHandler,
		"list":  m.listHandler,
	}
	for _, name := range []string{"spawn", "kill", "list"} {
		err := sys.RegisterService(core.ServiceSpec{
			Path: names.Join(ifacePath, name), ACL: svcACL, Class: bot,
			Base: dispatch.Binding{Owner: "threadsvc", Handler: services[name]},
		})
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Spawn creates a thread owned by the calling principal. The thread
// node is protected so that only the owner may kill it under DAC, and
// the node carries the caller's class so MAC isolates compartments as
// well.
func (m *Manager) Spawn(ctx *subject.Context, name string) (*Thread, error) {
	m.mu.Lock()
	m.nextID++
	id := m.nextID
	m.mu.Unlock()

	t := &Thread{
		ID:    id,
		Name:  name,
		Owner: ctx.SubjectName(),
		Class: ctx.Class(),
		alive: true,
		done:  make(chan struct{}),
	}
	// Anyone may stat a thread (subject to MAC read-down); only the
	// owner may write (kill) or delete it.
	nodeACL := acl.New(
		acl.Allow(ctx.SubjectName(), acl.Write|acl.Delete),
		acl.AllowEveryone(acl.List|acl.Read),
	)
	_, err := m.sys.Apply(ctx, names.Bind(m.dir, names.BindSpec{
		Name: strconv.Itoa(id), Kind: names.KindObject,
		ACL: nodeACL, Class: ctx.Class(), Payload: t,
	}))
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.threads[id] = t
	m.mu.Unlock()
	return t, nil
}

// Kill terminates the thread with the given ID on behalf of ctx.
// Killing is a write to the thread object: the caller needs write mode
// on the thread node and, under MAC, must not write down — a hostile
// applet cannot reach threads outside its compartment at all, and
// inside its compartment the ACL still names only the owner.
func (m *Manager) Kill(ctx *subject.Context, id int) error {
	path := names.Join(m.dir, strconv.Itoa(id))
	n, err := m.sys.CheckData(ctx, path, acl.Write)
	if err != nil {
		return err
	}
	t, ok := n.Payload().(*Thread)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoThread, id)
	}
	if err := t.kill(ctx.SubjectName()); err != nil {
		return err
	}
	// Reap the node so the name space reflects liveness. The service
	// acts as the trusted reaper here, not the caller.
	_, err = m.sys.Names().Apply(nil, lattice.Class{}, names.Unbind(path))
	return err
}

// List returns the IDs of the threads whose nodes are visible to ctx,
// ascending. Visibility follows the name space: everyone sees the names
// (the directory is multilevel), but the returned set includes only
// threads whose nodes the caller may stat.
func (m *Manager) List(ctx *subject.Context) ([]int, error) {
	entries, err := m.sys.List(ctx, m.dir)
	if err != nil {
		return nil, err
	}
	ids := make([]int, 0, len(entries))
	for _, e := range entries {
		id, err := strconv.Atoi(e)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

// Get returns the thread record for an ID if its node is readable by
// ctx.
func (m *Manager) Get(ctx *subject.Context, id int) (*Thread, error) {
	path := names.Join(m.dir, strconv.Itoa(id))
	n, err := m.sys.CheckData(ctx, path, acl.Read)
	if err != nil {
		return nil, err
	}
	t, ok := n.Payload().(*Thread)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoThread, id)
	}
	return t, nil
}

// Lookup returns a thread by ID with no access check (tests and the
// scenario harness use it to inspect outcomes).
func (m *Manager) Lookup(id int) (*Thread, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.threads[id]
	return t, ok
}

func (m *Manager) spawnHandler(ctx *subject.Context, arg any) (any, error) {
	r, ok := arg.(SpawnRequest)
	if !ok {
		return nil, fmt.Errorf("threadsvc: bad request type %T", arg)
	}
	t, err := m.Spawn(ctx, r.Name)
	if err != nil {
		return nil, err
	}
	return t.ID, nil
}

func (m *Manager) killHandler(ctx *subject.Context, arg any) (any, error) {
	r, ok := arg.(KillRequest)
	if !ok {
		return nil, fmt.Errorf("threadsvc: bad request type %T", arg)
	}
	return nil, m.Kill(ctx, r.ID)
}

func (m *Manager) listHandler(ctx *subject.Context, arg any) (any, error) {
	return m.List(ctx)
}
