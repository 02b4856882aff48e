package replica

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"secext/internal/core"
	"secext/internal/monitor"
	"secext/internal/names"
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
	wire, err := names.DecodeEpoch(func() (string, error) { return readLine("snapshot") })
	if err != nil {
		return fail(fmt.Errorf("replica: decoding snapshot: %w", err))
	}
	conn.SetReadDeadline(time.Time{})
	r := &Replica{
		conn: conn,
		opts: opts,
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	if r.sys, err = core.NewSystem(core.Options{
		Levels:     wire.Levels,
		Categories: wire.Categories,
		Telemetry:  opts.Telemetry,
	}); err != nil {
		return fail(fmt.Errorf("replica: building local system: %w", err))
	}
	if err := r.sys.Registry().SetTokenSecret(secret); err != nil {
		return fail(err)
	}
	if err := r.apply(wire); err != nil {
		return fail(fmt.Errorf("replica: installing snapshot: %w", err))
	}
	r.lastHeard.Store(time.Now().UnixNano())
	fmt.Fprintf(conn, "ACK %d\n", wire.Version)
	go r.read(sc)
	go r.watchdog()
	return r, nil
}

// read is the stream reader: decode each message from its frames,
// apply it atomically, acknowledge it, answer PINGs. When the stream
// fails the reader records why and hangs up, so the primary stops
// waiting for acks from this replica; when the stream ends the reader
// just exits. Either way the watchdog then fails the replica closed
// once the staleness deadline passes, which is the bounded-stale half
// of the consistency contract (a freshly severed replica may keep
// granting until the deadline, and never after).
func (r *Replica) read(sc *bufio.Scanner) {
	defer close(r.done)
	for sc.Scan() {
		line := sc.Text()
		kind, payload, _ := strings.Cut(line, " ")
		switch kind {
		case "SNAP-HEAD":
			first := true
			w, err := names.DecodeEpoch(func() (string, error) {
				r.heard()
				if first {
					first = false
					return line, nil
				}
				if !sc.Scan() {
					if err := sc.Err(); err != nil {
						return "", err
					}
					return "", fmt.Errorf("connection closed mid-message")
				}
				return sc.Text(), nil
			})
			if err != nil {
				r.fail(fmt.Errorf("replica: decoding message: %w", err))
				return
			}
			if err := r.apply(w); err != nil {
				r.fail(fmt.Errorf("replica: applying v%d from v%d: %w", w.Version, w.From, err))
				return
			}
			r.heard()
			r.send("ACK %d", w.Version)
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

// apply installs one message, the bootstrap snapshot and every delta
// alike, and only on the version this replica last applied (0 before
// the bootstrap), so a gapped, repeated or reordered message fails
// instead of patching the wrong base. Order matters for safety: the
// lattice entries a delta adds come first, then the registry replay
// (registry revocations take effect here, BEFORE the ack) runs beside
// the build of the message's nodes, and the tree and any stack change
// land in one atomic publication stamped with the primary version,
// once the registry has landed, so its one compile sees the whole
// registry.
func (r *Replica) apply(w *names.EpochWire) error {
	if applied := r.applied.Load(); w.From != applied {
		return fmt.Errorf("message from v%d out of sequence: applied v%d", w.From, applied)
	}
	sys := r.sys
	if w.From > 0 {
		for _, lv := range w.Levels {
			if _, err := sys.Lattice().DefineLevel(lv); err != nil {
				return err
			}
		}
		for _, c := range w.Categories {
			if _, err := sys.Lattice().DefineCategory(c); err != nil {
				return err
			}
		}
	}
	var stack *monitor.Stack
	if w.From == 0 || w.Stack != nil {
		s, err := BuildStack(w.Stack)
		if err != nil {
			return err
		}
		stack = s
	}
	// A message with both registry changes and rows (a bootstrap,
	// mostly) replays the one while it builds the other.
	replayed := make(chan error, 1)
	replay := func() { replayed <- names.ReplayRegistry(sys.Registry(), sys.Lattice(), w) }
	if len(w.Rows) > 0 && len(w.Principals)+len(w.Groups) > 0 {
		go replay()
	} else {
		replay()
	}
	tree, err := sys.Names().BuildEpoch(w)
	if rerr := <-replayed; rerr != nil {
		return fmt.Errorf("replaying registry: %w", rerr)
	}
	if err != nil {
		return err
	}
	r.mu.Lock()
	if stack != nil {
		r.liveStack = stack
	} else if r.stale.Load() {
		// Leaving staleness: the publication must reinstall the live
		// stack even when the primary's stack did not change.
		stack = r.liveStack
	}
	r.mu.Unlock()
	if _, err := sys.Names().ApplyReplicated(names.ReplicaApply{
		PrimaryVersion: w.Version,
		Tree:           tree,
		Stack:          stack,
	}); err != nil {
		return err
	}
	r.applied.Store(w.Version)
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
			if _, err := r.sys.Names().ApplyReplicated(names.ReplicaApply{
				PrimaryVersion: r.applied.Load(),
				Kind:           "replica-stale",
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
	if _, err := r.sys.Names().ApplyReplicated(names.ReplicaApply{
		PrimaryVersion: r.applied.Load(),
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

// fail records the stream error and hangs up: the primary then drops
// this peer, so its barriers stop waiting for acks that will never
// come. The replica keeps serving under the bounded-stale contract
// until the watchdog's deadline fails it closed.
func (r *Replica) fail(err error) {
	r.readErr.CompareAndSwap(nil, &err)
	r.conn.Close()
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
