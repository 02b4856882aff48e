package replica

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"encoding/json"

	"secext/internal/core"
	"secext/internal/lattice"
	"secext/internal/monitor"
	"secext/internal/names"
	"secext/internal/principal"
	"secext/internal/telemetry"
)

// Options configure Connect.
type Options struct {
	// Addr is the primary's line-protocol address.
	Addr string
	// Token authenticates the subscription; the principal it names must
	// hold administrate on "/" at the primary (replication hands out the
	// entire policy, so only an administrator-equivalent may subscribe).
	Token string
	// StaleAfter is the staleness deadline: when nothing has been heard
	// from the primary for this long, the replica publishes the
	// fail-closed deny-all stack. Default 3s.
	StaleAfter time.Duration
	// DialTimeout bounds the TCP connect (default 5s).
	DialTimeout time.Duration
	// Telemetry configures the replica system's observability.
	Telemetry telemetry.Options
}

// Replica is one replica mediator: a full core.System whose policy is
// driven by a primary's epoch stream instead of local mutations. Reads
// (CheckData, List, Explain, telemetry) work exactly as on the
// primary; writes are not supported — the primary owns them.
type Replica struct {
	sys  *core.System
	conn net.Conn
	opts Options

	// applied is the last primary epoch version fully applied locally.
	applied atomic.Uint64
	// lastHeard is the unix-nano time of the last message (delta or
	// ping) from the primary; the watchdog compares it against the
	// staleness deadline.
	lastHeard atomic.Int64
	// stale reports whether the fail-closed stack is currently
	// installed.
	stale atomic.Bool

	// mu guards liveStack (the stack the stream last replicated) and
	// write access to the connection (reader and watchdog both send).
	mu        sync.Mutex
	liveStack *monitor.Stack

	quit chan struct{}
	done chan struct{}

	// readErr records why the stream ended (nil until it does).
	readErr atomic.Pointer[error]
}

// Connect dials the primary, authenticates, bootstraps a full local
// system from the streamed snapshot, and starts the stream reader and
// the staleness watchdog. On return the replica serves checks at the
// primary epoch version carried by the snapshot. Every read until then
// has StaleAfter to arrive, so a primary that stalls mid-bootstrap
// fails Connect instead of hanging it.
func Connect(opts Options) (*Replica, error) {
	if opts.StaleAfter <= 0 {
		opts.StaleAfter = 3 * time.Second
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", opts.Addr, opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("replica: dial %s: %w", opts.Addr, err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), names.MaxFrame)

	fail := func(err error) (*Replica, error) {
		conn.Close()
		return nil, err
	}
	readLine := func(what string) (string, error) {
		conn.SetReadDeadline(time.Now().Add(opts.StaleAfter))
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", fmt.Errorf("replica: reading %s: %w", what, err)
			}
			return "", fmt.Errorf("replica: connection closed while reading %s", what)
		}
		return sc.Text(), nil
	}
	expect := func(what string) (string, error) {
		line, err := readLine(what)
		if err == nil && !strings.HasPrefix(line, "OK") {
			err = fmt.Errorf("replica: %s: primary said %q", what, line)
		}
		return line, err
	}

	if _, err := expect("greeting"); err != nil {
		return fail(err)
	}
	fmt.Fprintf(conn, "HELLO %d\n", ProtoVersion)
	line, err := expect("version negotiation")
	if err != nil {
		return fail(err)
	}
	var proto int
	if _, err := fmt.Sscanf(line, "OK proto %d", &proto); err != nil || proto < SubscribeProto {
		return fail(fmt.Errorf("replica: primary negotiated %q; replication needs protocol >= %d", line, SubscribeProto))
	}
	fmt.Fprintf(conn, "AUTH %s\n", opts.Token)
	if _, err := expect("authentication"); err != nil {
		return fail(err)
	}
	fmt.Fprintf(conn, "SUBSCRIBE 0\n")
	if _, err := expect("subscription"); err != nil {
		return fail(err)
	}
	if line, err = readLine("snapshot"); err != nil {
		return fail(err)
	}
	payload, ok := strings.CutPrefix(line, "SNAP-SECRET ")
	if !ok {
		return fail(fmt.Errorf("replica: expected the snapshot's SNAP-SECRET line, got %.40q", line))
	}
	secret, err := DecodeSecret(payload)
	if err != nil {
		return fail(fmt.Errorf("replica: decoding token secret: %w", err))
	}
	wire, err := names.DecodeSnapshot(func() (string, error) { return readLine("snapshot") })
	if err != nil {
		return fail(err)
	}
	conn.SetReadDeadline(time.Time{})
	r := &Replica{
		conn: conn,
		opts: opts,
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	if err := r.bootstrap(wire, secret); err != nil {
		return fail(err)
	}
	r.applied.Store(wire.Version)
	r.lastHeard.Store(time.Now().UnixNano())
	fmt.Fprintf(conn, "ACK %d\n", wire.Version)
	go r.read(sc)
	go r.watchdog()
	return r, nil
}

// bootstrap builds the local system from a snapshot: lattice universe,
// token secret, principals (in dense-ID order, so local IDs equal the
// primary's), groups, and finally the tree and guard stack in one
// atomic publication.
func (r *Replica) bootstrap(wire *names.EpochWire, secret []byte) error {
	sys, err := core.NewSystem(core.Options{
		Levels:     wire.Levels,
		Categories: wire.Categories,
		Telemetry:  r.opts.Telemetry,
	})
	if err != nil {
		return fmt.Errorf("replica: building local system: %w", err)
	}
	if err := sys.Registry().SetTokenSecret(secret); err != nil {
		return err
	}
	// One Registry.Apply replays the whole registry: principals first, in
	// dense-ID order, so local IDs equal the primary's and the compiled
	// bitsets the replica builds index identically; then groups, then
	// memberships.
	n := len(wire.Principals) + len(wire.Groups)
	for _, gw := range wire.Groups {
		n += len(gw.Members)
	}
	edits := make([]principal.Edit, 0, n)
	classes := make(map[string]lattice.Class) // class values are immutable; principals share them
	for _, pw := range wire.Principals {
		class, ok := classes[pw.Class]
		if !ok {
			if class, err = sys.Lattice().ParseClass(pw.Class); err != nil {
				return fmt.Errorf("replica: replaying principal %s: %w", pw.Name, err)
			}
			classes[pw.Class] = class
		}
		edits = append(edits, principal.AddPrincipal(pw.Name, class))
	}
	for _, gw := range wire.Groups {
		edits = append(edits, principal.AddGroup(gw.Name))
	}
	for _, gw := range wire.Groups {
		for _, m := range gw.Members {
			edits = append(edits, principal.AddMember(gw.Name, strings.TrimPrefix(m, "@")))
		}
	}
	stack, err := BuildStack(wire.Stack)
	if err != nil {
		return err
	}
	// The registry replay and the tree build are independent: run them
	// side by side, then publish the tree once the registry has landed,
	// so its one compile sees the whole registry.
	replayed := make(chan error, 1)
	go func() {
		_, err := sys.Registry().Apply(edits...)
		replayed <- err
	}()
	tree, err := sys.Names().BuildSnapshot(wire)
	if rerr := <-replayed; rerr != nil {
		return fmt.Errorf("replica: replaying registry: %w", rerr)
	}
	if err != nil {
		return fmt.Errorf("replica: installing snapshot tree: %w", err)
	}
	r.mu.Lock()
	r.liveStack = stack
	r.mu.Unlock()
	if _, err := sys.Names().ApplyReplicated(names.ReplicaApply{
		PrimaryVersion: wire.Version,
		Traversal:      wire.Traversal,
		Snapshot:       tree,
		Stack:          stack,
	}); err != nil {
		return fmt.Errorf("replica: installing snapshot tree: %w", err)
	}
	r.sys = sys
	return nil
}

// read is the stream reader: join each delta from its DELTA-PART and
// DELTA lines, apply it atomically, acknowledge it, answer PINGs. When
// the stream ends the reader just exits — the watchdog then fails the replica closed once the staleness deadline
// passes, which is the bounded-stale half of the consistency contract
// (a freshly severed replica may keep granting until the deadline, and
// never after).
func (r *Replica) read(sc *bufio.Scanner) {
	defer close(r.done)
	// body collects the pieces of the delta being received.
	var body []byte
	for sc.Scan() {
		kind, payload, _ := strings.Cut(sc.Text(), " ")
		switch kind {
		case "DELTA-PART", "DELTA":
			if len(body)+len(payload) > maxDelta {
				r.fail(fmt.Errorf("replica: delta exceeds %d bytes", maxDelta))
				return
			}
			body = append(body, payload...)
			r.heard()
			if kind == "DELTA-PART" {
				continue
			}
			var d names.EpochDelta
			err := json.Unmarshal(body, &d)
			body = nil
			if err != nil {
				r.fail(fmt.Errorf("replica: decoding delta: %w", err))
				return
			}
			if err := r.applyDelta(&d); err != nil {
				r.fail(fmt.Errorf("replica: applying delta v%d: %w", d.Version, err))
				return
			}
			r.heard()
			r.send("ACK %d", d.Version)
		case "PING":
			r.heard()
			r.restoreIfStale()
			r.send("ACK %d", r.applied.Load())
		case "ERR":
			r.fail(fmt.Errorf("replica: primary error: %s", payload))
			return
		default:
			// Unknown stream messages are ignored: a newer primary may
			// add informational messages without breaking old replicas.
		}
	}
	if err := sc.Err(); err != nil {
		r.fail(err)
	}
}

// applyDelta replays one epoch delta. Order matters for safety: the
// append-only shards (lattice, registry) replay first through the
// ordinary entry points — each lands in a consistent local epoch, and
// registry revocations take effect here, BEFORE the ack — then the
// tree patch and any stack change land in one atomic publication
// stamped with the primary version.
func (r *Replica) applyDelta(d *names.EpochDelta) error {
	sys := r.sys
	for _, lv := range d.Levels {
		if _, err := sys.Lattice().DefineLevel(lv); err != nil {
			return err
		}
	}
	for _, c := range d.Categories {
		if _, err := sys.Lattice().DefineCategory(c); err != nil {
			return err
		}
	}
	// The registry part of the delta is one Registry.Apply, landing in
	// one local epoch before the ack: new principals, new groups, then
	// every removal before any grant, so a moved subgroup edge never
	// trips the cycle check on a half-moved edge set.
	reg := sys.Registry()
	var edits, grants []principal.Edit
	for _, pw := range d.Principals {
		class, err := sys.Lattice().ParseClass(pw.Class)
		if err != nil {
			return err
		}
		edits = append(edits, principal.AddPrincipal(pw.Name, class))
	}
	f := reg.Freeze()
	for _, gw := range d.Groups {
		if !f.HasGroup(gw.Name) {
			edits = append(edits, principal.AddGroup(gw.Name))
		}
		cur, _ := f.Members(gw.Name) // nil for a group this delta adds
		want := make(map[string]bool, len(gw.Members))
		for _, m := range gw.Members {
			want[m] = true
		}
		have := make(map[string]bool, len(cur))
		for _, m := range cur {
			have[m] = true
			if !want[m] {
				edits = append(edits, principal.RemoveMember(gw.Name, strings.TrimPrefix(m, "@")))
			}
		}
		for _, m := range gw.Members {
			if !have[m] {
				grants = append(grants, principal.AddMember(gw.Name, strings.TrimPrefix(m, "@")))
			}
		}
	}
	if _, err := reg.Apply(append(edits, grants...)...); err != nil {
		return err
	}
	var stack *monitor.Stack
	if d.Stack != nil {
		s, err := BuildStack(d.Stack)
		if err != nil {
			return err
		}
		stack = s
		r.mu.Lock()
		r.liveStack = s
		r.mu.Unlock()
	}
	// Leaving staleness: the delta's publication must reinstall the
	// live stack even when the primary's stack did not change.
	if stack == nil && r.stale.Load() {
		r.mu.Lock()
		stack = r.liveStack
		r.mu.Unlock()
	}
	if _, err := sys.Names().ApplyReplicated(names.ReplicaApply{
		PrimaryVersion: d.Version,
		Traversal:      d.Traversal,
		Upserts:        d.Upserts,
		Deletes:        d.Deletes,
		Stack:          stack,
	}); err != nil {
		return err
	}
	r.applied.Store(d.Version)
	r.stale.Store(false)
	return nil
}

// watchdog enforces the staleness deadline: when nothing has been
// heard from the primary for StaleAfter, publish the fail-closed
// deny-all stack. The publication is an ordinary epoch transition, so
// every cached grant dies with it.
func (r *Replica) watchdog() {
	tick := r.opts.StaleAfter / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-r.quit:
			return
		case <-t.C:
			if r.stale.Load() {
				continue
			}
			last := time.Unix(0, r.lastHeard.Load())
			if time.Since(last) < r.opts.StaleAfter {
				continue
			}
			// Mark stale BEFORE publishing: a concurrent delta that
			// applies after this flag observes it and reinstalls the
			// live stack with its own later publication.
			r.stale.Store(true)
			cur := r.sys.Names().Current()
			applied := r.applied.Load()
			if _, err := r.sys.Names().ApplyReplicated(names.ReplicaApply{
				PrimaryVersion: applied,
				Kind:           "replica-stale",
				Traversal:      cur.TraversalChecks(),
				Stack:          StaleStack(),
			}); err != nil {
				// Publishing a deny-all stack cannot structurally fail;
				// if it somehow does, stay marked stale and retry on
				// the next tick.
				r.stale.Store(false)
			}
		}
	}
}

// restoreIfStale reinstalls the replicated stack after a stale period
// ended with a PING (stream alive, no new epochs).
func (r *Replica) restoreIfStale() {
	if !r.stale.Load() {
		return
	}
	r.mu.Lock()
	stack := r.liveStack
	r.mu.Unlock()
	cur := r.sys.Names().Current()
	if _, err := r.sys.Names().ApplyReplicated(names.ReplicaApply{
		PrimaryVersion: r.applied.Load(),
		Traversal:      cur.TraversalChecks(),
		Stack:          stack,
	}); err == nil {
		r.stale.Store(false)
	}
}

// heard stamps the liveness clock.
func (r *Replica) heard() { r.lastHeard.Store(time.Now().UnixNano()) }

// send writes one protocol line; reader and watchdog share the
// connection, so writes serialize on r.mu.
func (r *Replica) send(format string, args ...any) {
	r.mu.Lock()
	fmt.Fprintf(r.conn, format+"\n", args...)
	r.mu.Unlock()
}

// fail records the stream error. The replica keeps serving under the
// bounded-stale contract until the watchdog's deadline fails it
// closed.
func (r *Replica) fail(err error) {
	r.readErr.CompareAndSwap(nil, &err)
}

// System returns the replica's local reference monitor: checks,
// explain, telemetry, and the journal all work against it.
func (r *Replica) System() *core.System { return r.sys }

// AppliedVersion returns the last primary epoch version fully applied.
func (r *Replica) AppliedVersion() uint64 { return r.applied.Load() }

// Stale reports whether the fail-closed stack is currently installed:
// the published epoch's stack is the stale-replica guard alone. (The
// watchdog raises its internal flag before that publication lands, so
// the flag alone would report staleness a moment too early.)
func (r *Replica) Stale() bool {
	g := r.sys.Names().Current().Stack().Guards()
	return len(g) == 1 && g[0] == staleGuard{}.Name()
}

// Err returns the stream error, nil while the stream is healthy.
func (r *Replica) Err() error {
	if e := r.readErr.Load(); e != nil {
		return *e
	}
	return nil
}

// Close severs the stream and stops the watchdog. The replica's system
// remains queryable (tests inspect it); it no longer updates.
func (r *Replica) Close() {
	select {
	case <-r.quit:
	default:
		close(r.quit)
	}
	r.conn.Close()
	<-r.done
}
