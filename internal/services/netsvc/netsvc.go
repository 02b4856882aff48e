// Package netsvc is a protected message-passing service: named
// endpoints that principals open, send to, and receive from. It stands
// in for the communication substrate of the paper's distributed
// examples (applets "originating from outside the organization" arrive
// over exactly such channels, and Inferno — §1 — is the
// communication-centric member of the surveyed systems).
//
// Every endpoint is a node in the universal name space, so the same
// two-layer decision governs messaging as everything else:
//
//   - sending is a write-append to the endpoint — anyone the DAC layer
//     admits may send *up* to a more trusted endpoint, but never down,
//     and incomparable compartments cannot exchange messages at all;
//   - receiving is a read — only subjects dominating the endpoint (in
//     practice its owner's compartment) can take delivery.
//
// The asymmetry is the lattice's report-up channel applied to IPC.
package netsvc

import (
	"errors"
	"fmt"
	"sync"

	"secext/internal/acl"
	"secext/internal/core"
	"secext/internal/dispatch"
	"secext/internal/names"
	"secext/internal/subject"
)

// Errors returned by the network service.
var (
	ErrNotEndpoint = errors.New("netsvc: not an endpoint")
	ErrEmpty       = errors.New("netsvc: no messages queued")
	ErrQueueFull   = errors.New("netsvc: endpoint queue full")
)

// DefaultQueueDepth bounds each endpoint's mailbox.
const DefaultQueueDepth = 64

// Message is one delivered datagram, attributed to its sender.
type Message struct {
	From      string // sending principal
	FromClass string // sender's class label at send time
	Data      []byte
}

// endpoint is the node payload.
type endpoint struct {
	mu    sync.Mutex
	queue []Message
	depth int
}

// Request argument types for the service entry points.
type (
	// OpenRequest creates an endpoint named Name owned by the caller.
	OpenRequest struct{ Name string }
	// SendRequest appends Data to the endpoint's queue.
	SendRequest struct {
		Name string
		Data []byte
	}
	// RecvRequest dequeues the oldest message.
	RecvRequest struct{ Name string }
	// CloseRequest removes the endpoint.
	CloseRequest struct{ Name string }
)

// Net is the message-passing service rooted at one directory.
type Net struct {
	sys   *core.System
	dir   string
	depth int
}

// New creates the endpoint directory at dir (multilevel, so principals
// at any class can open endpoints) and registers open, send, recv, and
// close services under ifacePath.
func New(sys *core.System, dir, ifacePath string, svcACL *acl.ACL, queueDepth int) (*Net, error) {
	if queueDepth <= 0 {
		queueDepth = DefaultQueueDepth
	}
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
	n := &Net{sys: sys, dir: dir, depth: queueDepth}
	if _, err := sys.CreateNode(core.NodeSpec{
		Path: ifacePath, Kind: names.KindInterface,
		ACL: acl.New(acl.AllowEveryone(acl.List)), Class: bot,
	}); err != nil {
		return nil, err
	}
	handlers := map[string]dispatch.Handler{
		"open": func(ctx *subject.Context, arg any) (any, error) {
			r, ok := arg.(OpenRequest)
			if !ok {
				return nil, fmt.Errorf("netsvc: bad request type %T", arg)
			}
			return nil, n.Open(ctx, r.Name)
		},
		"send": func(ctx *subject.Context, arg any) (any, error) {
			r, ok := arg.(SendRequest)
			if !ok {
				return nil, fmt.Errorf("netsvc: bad request type %T", arg)
			}
			return nil, n.Send(ctx, r.Name, r.Data)
		},
		"recv": func(ctx *subject.Context, arg any) (any, error) {
			r, ok := arg.(RecvRequest)
			if !ok {
				return nil, fmt.Errorf("netsvc: bad request type %T", arg)
			}
			return n.Recv(ctx, r.Name)
		},
		"close": func(ctx *subject.Context, arg any) (any, error) {
			r, ok := arg.(CloseRequest)
			if !ok {
				return nil, fmt.Errorf("netsvc: bad request type %T", arg)
			}
			return nil, n.Close(ctx, r.Name)
		},
	}
	for _, name := range []string{"open", "send", "recv", "close"} {
		err := sys.RegisterService(core.ServiceSpec{
			Path: names.Join(ifacePath, name), ACL: svcACL, Class: bot,
			Base: dispatch.Binding{Owner: "netsvc", Handler: handlers[name]},
		})
		if err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Open creates an endpoint at the caller's class. The endpoint's ACL
// lets everyone send (write-append; MAC still forbids write-down and
// cross-compartment sends) and only the owner receive or close.
func (n *Net) Open(ctx *subject.Context, name string) error {
	epACL := acl.New(
		acl.AllowEveryone(acl.WriteAppend|acl.List),
		acl.Allow(ctx.SubjectName(), acl.Read|acl.Delete),
	)
	_, err := n.sys.Apply(ctx, names.Bind(n.dir, names.BindSpec{
		Name: name, Kind: names.KindObject,
		ACL: epACL, Class: ctx.Class(),
		Payload: &endpoint{depth: n.depth},
	}))
	return err
}

func (n *Net) resolve(ctx *subject.Context, name string, modes acl.Mode) (*endpoint, error) {
	node, err := n.sys.CheckData(ctx, names.Join(n.dir, name), modes)
	if err != nil {
		return nil, err
	}
	ep, ok := node.Payload().(*endpoint)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotEndpoint, name)
	}
	return ep, nil
}

// Send appends a message to the endpoint's queue (write-append).
func (n *Net) Send(ctx *subject.Context, name string, data []byte) error {
	ep, err := n.resolve(ctx, name, acl.WriteAppend)
	if err != nil {
		return err
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if len(ep.queue) >= ep.depth {
		return fmt.Errorf("%w: %s", ErrQueueFull, name)
	}
	ep.queue = append(ep.queue, Message{
		From:      ctx.SubjectName(),
		FromClass: ctx.Class().String(),
		Data:      append([]byte(nil), data...),
	})
	return nil
}

// Recv dequeues the oldest message (read).
func (n *Net) Recv(ctx *subject.Context, name string) (Message, error) {
	ep, err := n.resolve(ctx, name, acl.Read)
	if err != nil {
		return Message{}, err
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if len(ep.queue) == 0 {
		return Message{}, fmt.Errorf("%w: %s", ErrEmpty, name)
	}
	m := ep.queue[0]
	ep.queue = ep.queue[1:]
	return m, nil
}

// Pending reports the queue length (read).
func (n *Net) Pending(ctx *subject.Context, name string) (int, error) {
	ep, err := n.resolve(ctx, name, acl.Read)
	if err != nil {
		return 0, err
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.queue), nil
}

// Close removes the endpoint (delete on the node).
func (n *Net) Close(ctx *subject.Context, name string) error {
	_, err := n.sys.Apply(ctx, names.Unbind(names.Join(n.dir, name)))
	return err
}

// Endpoints lists the endpoint names visible to ctx.
func (n *Net) Endpoints(ctx *subject.Context) ([]string, error) {
	return n.sys.List(ctx, n.dir)
}
