package secext

import (
	"secext/internal/acl"
	"secext/internal/core"
	"secext/internal/fsys"
	"secext/internal/names"
	"secext/internal/policy"
	"secext/internal/principal"
	"secext/internal/services/logsvc"
	"secext/internal/services/mbuf"
	"secext/internal/services/netsvc"
	"secext/internal/services/threadsvc"
	"secext/internal/telemetry"
)

// Service types re-exported for World users.
type (
	// ThreadManager is the protected thread service.
	ThreadManager = threadsvc.Manager
	// Thread is one simulated thread of control.
	Thread = threadsvc.Thread
	// ThreadSpawnRequest is the argument of /svc/thread/spawn.
	ThreadSpawnRequest = threadsvc.SpawnRequest
	// ThreadKillRequest is the argument of /svc/thread/kill.
	ThreadKillRequest = threadsvc.KillRequest
	// MbufPool is the buffer-pool service.
	MbufPool = mbuf.Pool
	// MbufBuffer is one pool buffer.
	MbufBuffer = mbuf.Buffer
	// MbufStats describes pool occupancy.
	MbufStats = mbuf.Stats
	// Journal is the append-only log service.
	Journal = logsvc.Journal
	// JournalEntry is one journal record.
	JournalEntry = logsvc.Entry
	// NetService is the protected message-passing service.
	NetService = netsvc.Net
	// NetMessage is one delivered, attributed datagram.
	NetMessage = netsvc.Message
	// NetOpenRequest is the argument of /svc/net/open.
	NetOpenRequest = netsvc.OpenRequest
	// NetSendRequest is the argument of /svc/net/send.
	NetSendRequest = netsvc.SendRequest
	// NetRecvRequest is the argument of /svc/net/recv.
	NetRecvRequest = netsvc.RecvRequest
	// NetCloseRequest is the argument of /svc/net/close.
	NetCloseRequest = netsvc.CloseRequest
)

// WorldOptions configure NewWorld.
type WorldOptions struct {
	// Levels are the trust levels, lowest first. Required.
	Levels []string
	// Categories are the compartment labels. Optional.
	Categories []string
	// JournalClassLabel labels the system journal; it defaults to the
	// highest level with no categories, so every subject can append and
	// only top-level subjects can read.
	JournalClassLabel string
	// MbufCount and MbufSize dimension the buffer pool (defaults 256 ×
	// 2048).
	MbufCount, MbufSize int
	// DisableAudit starts with the audit log off.
	DisableAudit bool
	// TrustLinkTime enables the SPIN-style linked-call fast path.
	TrustLinkTime bool
	// DisableDecisionCache turns off the mediation fast path (see
	// core.Options.DisableDecisionCache); for experiments.
	DisableDecisionCache bool
	// Guards are extra policy modules stacked after the built-in
	// discretionary and mandatory guards (see core.Options.Guards).
	Guards []Guard
	// Telemetry configures the observability subsystem (see
	// core.Options.Telemetry). The zero value enables metrics with
	// sampled traces; TelemetryOff disables it entirely.
	Telemetry telemetry.Options
	// PolicyText, if non-empty, is parsed as a policy document and
	// applied to the assembled world: its principals, groups, extra
	// nodes, and ACL grants land on top of the standard services. The
	// document's levels directive must name the same levels as Levels.
	PolicyText string
}

// World is a fully assembled extensible system: the reference monitor
// plus the standard substrate services mounted at their conventional
// paths —
//
//	/svc                 service domain
//	/svc/fs/*            general file-system interface (extendable)
//	/svc/thread/*        thread lifecycle services
//	/svc/mbuf/*          buffer-pool services
//	/svc/net/*           message-passing services
//	/svc/log/*           journal services
//	/svc/journal         the append-only journal object
//	/fs                  multilevel file tree
//	/threads             thread objects
//	/net                 message endpoints
//
// Examples and the benchmark harness build on a World; library users
// who want a different layout assemble their own from the pieces.
type World struct {
	Sys     *System
	FS      *fsys.FS
	Threads *threadsvc.Manager
	Mbuf    *mbuf.Pool
	Journal *logsvc.Journal
	Net     *netsvc.Net
}

// NewWorld builds the standard world.
func NewWorld(opts WorldOptions) (*World, error) {
	sys, err := core.NewSystem(core.Options{
		Levels:               opts.Levels,
		Categories:           opts.Categories,
		DisableAudit:         opts.DisableAudit,
		TrustLinkTime:        opts.TrustLinkTime,
		DisableDecisionCache: opts.DisableDecisionCache,
		Guards:               opts.Guards,
		Telemetry:            opts.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	lat := sys.Lattice()
	bot, err := lat.Bottom()
	if err != nil {
		return nil, err
	}

	listable := acl.New(acl.AllowEveryone(acl.List))
	svcACL := acl.New(acl.AllowEveryone(acl.Execute | acl.List))

	if _, err := sys.CreateNode(core.NodeSpec{
		Path: "/svc", Kind: names.KindDomain, ACL: listable, Class: bot,
	}); err != nil {
		return nil, err
	}

	// File service: a multilevel tree plus the general FS interface.
	fsACL := acl.New(acl.AllowEveryone(acl.List | acl.Write))
	fs, err := fsys.Mount(sys, "/fs", fsACL, bot)
	if err != nil {
		return nil, err
	}
	if _, err := fsys.RegisterServices(sys, fs, "/svc/fs", svcACL, bot); err != nil {
		return nil, err
	}

	// Thread service.
	threads, err := threadsvc.New(sys, "/threads", "/svc/thread", svcACL)
	if err != nil {
		return nil, err
	}

	// Message passing.
	net, err := netsvc.New(sys, "/net", "/svc/net", svcACL, netsvc.DefaultQueueDepth)
	if err != nil {
		return nil, err
	}

	// Buffer pool.
	count, size := opts.MbufCount, opts.MbufSize
	if count == 0 {
		count = 256
	}
	if size == 0 {
		size = 2048
	}
	pool, err := mbuf.NewPool(sys, "/svc/mbuf", count, size, svcACL)
	if err != nil {
		return nil, err
	}

	// Journal: everyone appends (the journal's class must dominate
	// every subject, so it defaults to the lattice top — highest level,
	// all categories), and only subjects dominating the top read it.
	journalClass, err := lat.Top()
	if err != nil {
		return nil, err
	}
	if opts.JournalClassLabel != "" {
		journalClass, err = lat.ParseClass(opts.JournalClassLabel)
		if err != nil {
			return nil, err
		}
	}
	jACL := acl.New(
		acl.AllowEveryone(acl.WriteAppend),
		acl.AllowGroup("auditors", acl.Read|acl.Write),
	)
	journal, err := logsvc.New(sys, "/svc/journal", "/svc/log", jACL, journalClass, svcACL)
	if err != nil {
		return nil, err
	}
	if _, err := sys.Registry().Apply(principal.AddGroup("auditors")); err != nil {
		return nil, err
	}

	if opts.PolicyText != "" {
		p, err := policy.ParseString(opts.PolicyText)
		if err != nil {
			return nil, err
		}
		if err := p.Apply(sys); err != nil {
			return nil, err
		}
	}

	return &World{Sys: sys, FS: fs, Threads: threads, Mbuf: pool, Journal: journal, Net: net}, nil
}

// Telemetry returns the world's observability subsystem (nil when built
// with TelemetryOff; all methods are nil-safe).
func (w *World) Telemetry() *telemetry.Telemetry { return w.Sys.Telemetry() }
