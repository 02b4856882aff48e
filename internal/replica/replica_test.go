package replica_test

// End-to-end replication tests over real loopback TCP: a primary
// secext world serving the line protocol, replicas connecting through
// replica.Connect, policy flowing as snapshot frames + DELTA messages. These
// are the consistency-contract proofs at the package level; the
// fleet-wide attack test lives in the repository root's attack suite.

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"secext"
	"secext/internal/lattice"
	"secext/internal/monitor/quotaguard"
	"secext/internal/names"
	"secext/internal/principal"
	"secext/internal/remote"
	"secext/internal/replica"
)

// primary is one replication-enabled secext daemon under test.
type primary struct {
	w    *secext.World
	srv  *remote.Server
	pub  *replica.Publisher
	l    net.Listener
	addr string

	replicatorTok string
	aliceTok      string
	eveTok        string
}

func startPrimary(t *testing.T, ping time.Duration) *primary {
	t.Helper()
	w, err := secext.NewWorld(secext.WorldOptions{
		Levels:     []string{"others", "organization", "local"},
		Categories: []string{"dept-1", "dept-2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &primary{w: w}
	for _, spec := range []struct{ name, class string }{
		{"alice", "organization:{dept-1}"},
		{"eve", "others"},
		{"replicator", "others"},
	} {
		if _, err := w.Sys.AddPrincipal(spec.name, spec.class); err != nil {
			t.Fatal(err)
		}
	}
	rootACL, err := w.Sys.Names().ACLOf("/")
	if err != nil {
		t.Fatal(err)
	}
	rootACL.Add(secext.Allow("replicator", secext.Administrate))
	if err := w.Sys.Names().SetACLUnchecked("/", rootACL); err != nil {
		t.Fatal(err)
	}
	issue := func(name string) string {
		tok, err := w.Sys.Registry().IssueToken(name)
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	p.replicatorTok, p.aliceTok, p.eveTok = issue("replicator"), issue("alice"), issue("eve")

	ctx, err := w.Sys.NewContext("alice")
	if err != nil {
		t.Fatal(err)
	}
	open := secext.NewACL(secext.AllowEveryone(secext.Read | secext.Write | secext.WriteAppend))
	if err := w.FS.Create(ctx, "/fs/f", open, ctx.Class()); err != nil {
		t.Fatal(err)
	}

	p.srv = remote.NewServer(w.Sys)
	p.srv.PingInterval = ping
	p.pub = replica.NewPublisher(w.Sys)
	p.srv.SetPublisher(p.pub)
	p.l, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.addr = p.l.Addr().String()
	go p.srv.Serve(p.l)
	t.Cleanup(func() {
		p.pub.Close()
		p.srv.Close()
		p.l.Close()
	})
	return p
}

func (p *primary) connect(t *testing.T, staleAfter time.Duration) *replica.Replica {
	t.Helper()
	r, err := replica.Connect(replica.Options{
		Addr:       p.addr,
		Token:      p.replicatorTok,
		StaleAfter: staleAfter,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicaBootstrapAndPropagation: a replica bootstraps to the
// primary's policy, answers the same verdicts with the primary's own
// tokens, and tracks subsequent mutations — including a revocation,
// which must land (deny) on the replica after catch-up.
func TestReplicaBootstrapAndPropagation(t *testing.T) {
	p := startPrimary(t, 50*time.Millisecond)
	r := p.connect(t, 5*time.Second)

	if got, want := r.AppliedVersion(), p.w.Sys.Names().Version(); got != want {
		t.Fatalf("bootstrap applied v%d, primary at v%d", got, want)
	}
	// Primary-issued tokens authenticate on the replica (the signing
	// secret replicated), and the verdict matches the primary's.
	rctx, err := r.System().NewContextFromToken(p.aliceTok)
	if err != nil {
		t.Fatalf("primary token rejected by replica: %v", err)
	}
	if _, err := r.System().CheckData(rctx, "/fs/f", secext.Read); err != nil {
		t.Fatalf("replica denies what primary allows: %v", err)
	}
	// The replica's journal records the bootstrap as a replicated apply.
	recs := r.System().Names().Journal(1)
	if len(recs) == 0 || recs[0].Kind != "replica" {
		t.Fatalf("replica journal missing kind=replica bootstrap record: %+v", recs)
	}

	// Revoke on the primary: everyone loses read on /fs/f.
	closed := secext.NewACL(secext.AllowEveryone(secext.List))
	v, err := p.w.Sys.Names().Apply(nil, lattice.Class{}, names.SetACL("/fs/f", closed))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "replica to apply the revocation", func() bool {
		return r.AppliedVersion() >= v
	})
	if _, err := r.System().CheckData(rctx, "/fs/f", secext.Read); err == nil {
		t.Fatal("replica still grants after applying the revoking epoch")
	}
}

// TestRevocationBarrier: Barrier(v) returns only after every connected
// replica acked v, and at that point no replica grants under the
// revoked policy.
func TestRevocationBarrier(t *testing.T) {
	p := startPrimary(t, 50*time.Millisecond)
	r1 := p.connect(t, 10*time.Second)
	r2 := p.connect(t, 10*time.Second)

	ctxs := make([]*secext.Context, 0, 2)
	for _, r := range []*replica.Replica{r1, r2} {
		ctx, err := r.System().NewContextFromToken(p.aliceTok)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.System().CheckData(ctx, "/fs/f", secext.Read); err != nil {
			t.Fatalf("pre-revocation check denied: %v", err)
		}
		ctxs = append(ctxs, ctx)
	}

	closed := secext.NewACL(secext.AllowEveryone(secext.List))
	v, err := p.w.Sys.Names().Apply(nil, lattice.Class{}, names.SetACL("/fs/f", closed))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.pub.Barrier(v, 10*time.Second); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	// The barrier is the guarantee: no re-check, no sleep — the revoked
	// grant must already be dead on every replica.
	for i, r := range []*replica.Replica{r1, r2} {
		if _, err := r.System().CheckData(ctxs[i], "/fs/f", secext.Read); err == nil {
			t.Fatalf("replica %d grants after the revocation barrier returned", i)
		}
	}
}

// TestBarrierTimeout: a barrier with no acking peers reports a timeout
// instead of hanging.
func TestBarrierTimeout(t *testing.T) {
	p := startPrimary(t, time.Hour) // pings off: the peer never acks
	// Register a raw peer that never acknowledges: subscribe directly
	// at the publisher without a connection draining the channel.
	peer, _, err := p.pub.Subscribe("dead")
	if err != nil {
		t.Fatal(err)
	}
	defer p.pub.Remove(peer)
	v, err := p.w.Sys.Names().Apply(nil, lattice.Class{}, names.SetACL("/fs/f", secext.NewACL(secext.AllowEveryone(secext.List))))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.pub.Barrier(v, 50*time.Millisecond); err == nil {
		t.Fatal("barrier satisfied with a dead peer")
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("barrier returned after %s, before the timeout", elapsed)
	}
	if st := p.pub.Stats(); st.BarrierTimeouts == 0 {
		t.Fatal("barrier timeout not counted")
	}
}

// TestDisconnectedPeerStopsGatingBarrier: a peer that disconnects
// while behind stops gating the barrier — its replica is failing
// closed on its own deadline, which is the other half of the
// contract.
func TestDisconnectedPeerStopsGatingBarrier(t *testing.T) {
	p := startPrimary(t, 50*time.Millisecond)
	r := p.connect(t, 10*time.Second)
	peer, _, err := p.pub.Subscribe("dead")
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.w.Sys.Names().Apply(nil, lattice.Class{}, names.SetACL("/fs/f", secext.NewACL(secext.AllowEveryone(secext.List))))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.pub.Barrier(v, 10*time.Second) }()
	time.Sleep(20 * time.Millisecond)
	p.pub.Remove(peer) // connection died
	if err := <-done; err != nil {
		t.Fatalf("barrier still gated by the removed peer: %v", err)
	}
	waitFor(t, 5*time.Second, "live replica catch-up", func() bool {
		return r.AppliedVersion() >= v
	})
}

// TestStaleReplicaFailsClosed: severing the stream flips the replica
// to the deny-all stack after the staleness deadline — every check
// denies, cached verdicts included, and the journal records the
// fail-closed publication.
func TestStaleReplicaFailsClosed(t *testing.T) {
	p := startPrimary(t, 20*time.Millisecond)
	r := p.connect(t, 150*time.Millisecond)
	rctx, err := r.System().NewContextFromToken(p.aliceTok)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the decision cache with a grant — staleness must kill it.
	if _, err := r.System().CheckData(rctx, "/fs/f", secext.Read); err != nil {
		t.Fatal(err)
	}
	// Sever every connection (listener down, conns closed, publisher
	// detached): the replica hears nothing from here on.
	p.pub.Close()
	p.srv.Close()
	p.l.Close()

	waitFor(t, 5*time.Second, "staleness deadline", r.Stale)
	if _, err := r.System().CheckData(rctx, "/fs/f", secext.Read); err == nil {
		t.Fatal("stale replica still grants a previously cached verdict")
	}
	if !strings.Contains(r.System().Names().Current().Stack().Guards()[0], "stale-replica") {
		t.Fatalf("stale replica stack = %v, want the stale-replica guard",
			r.System().Names().Current().Stack().Guards())
	}
	recs := r.System().Names().Journal(1)
	if len(recs) == 0 || recs[0].Kind != "replica-stale" {
		t.Fatalf("journal missing the replica-stale record: %+v", recs)
	}
}

// TestStaleReplicaRestoresOnPing: when the stream is alive but idle
// longer than the deadline (pings slower than StaleAfter), the replica
// fails closed and then restores the replicated stack on the next
// PING — bounded staleness, not permanent death.
func TestStaleReplicaRestoresOnPing(t *testing.T) {
	p := startPrimary(t, 400*time.Millisecond)
	r := p.connect(t, 100*time.Millisecond)
	rctx, err := r.System().NewContextFromToken(p.aliceTok)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "stale flip between pings", r.Stale)
	// The replica oscillates: stale 100ms after each ping, restored on
	// the next. Wait for a granted check rather than a bare !Stale() —
	// the next stale window must not race the verdict.
	waitFor(t, 5*time.Second, "restored grant after a ping", func() bool {
		_, err := r.System().CheckData(rctx, "/fs/f", secext.Read)
		return err == nil
	})
	// And the journal (newest first) shows the round trip: a restore
	// publication newer than a replica-stale one.
	var sawNewerRestore, sawStaleRecord bool
	for _, rec := range r.System().Names().Journal(0) {
		switch rec.Kind {
		case "replica":
			if !sawStaleRecord {
				sawNewerRestore = true
			}
		case "replica-stale":
			sawStaleRecord = true
		}
	}
	if !sawStaleRecord || !sawNewerRestore {
		t.Fatalf("journal missing the stale/restore round trip (stale=%v restore=%v)",
			sawStaleRecord, sawNewerRestore)
	}
}

// TestSubscribeRequiresAdministrate: a token without administrate on
// "/" cannot subscribe — replication hands out the whole policy, so
// the ordinary ACL decides who may have it.
func TestSubscribeRequiresAdministrate(t *testing.T) {
	p := startPrimary(t, 50*time.Millisecond)
	_, err := replica.Connect(replica.Options{Addr: p.addr, Token: p.eveTok})
	if err == nil {
		t.Fatal("subscription succeeded without administrate on /")
	}
	if !strings.Contains(err.Error(), "denied") {
		t.Fatalf("want a denial, got: %v", err)
	}
	// And a garbage token fails authentication outright.
	_, err = replica.Connect(replica.Options{Addr: p.addr, Token: "eve.forged"})
	if err == nil || !strings.Contains(err.Error(), "authentication") {
		t.Fatalf("forged token: %v", err)
	}
}

// TestReplicaLagTelemetry: the publisher's stats expose per-peer acks
// and transfer volume.
func TestReplicaLagTelemetry(t *testing.T) {
	p := startPrimary(t, 50*time.Millisecond)
	r := p.connect(t, 10*time.Second)
	v, err := p.w.Sys.Names().Apply(nil, lattice.Class{}, names.SetACL("/fs/f", secext.NewACL(secext.AllowEveryone(secext.Read))))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.pub.Barrier(v, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	st := p.pub.Stats()
	if len(st.Peers) != 1 {
		t.Fatalf("stats list %d peers, want 1", len(st.Peers))
	}
	peer := st.Peers[0]
	if peer.Acked < v || peer.Lag != 0 {
		t.Fatalf("peer acked v%d lag %d after barrier on v%d", peer.Acked, peer.Lag, v)
	}
	if st.Snapshots != 1 || st.SnapshotBytes == 0 {
		t.Fatalf("snapshot accounting: %d msgs, %d bytes", st.Snapshots, st.SnapshotBytes)
	}
	if st.Deltas == 0 || st.DeltaBytes == 0 {
		t.Fatalf("delta accounting: %d msgs, %d bytes", st.Deltas, st.DeltaBytes)
	}
	if st.BarrierWait.Count == 0 {
		t.Fatal("barrier wait not observed in the histogram")
	}
	_ = r
}

// TestBuildStackRejectsUnknownGuard: a stack descriptor naming a guard
// with no replicable constructor fails instead of silently weakening
// the replica's policy.
func TestBuildStackRejectsUnknownGuard(t *testing.T) {
	if _, err := replica.BuildStack([]string{"dac", "quota"}); err == nil {
		t.Fatal("unknown guard rebuilt silently")
	}
	s, err := replica.BuildStack([]string{"dac", "mac"})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Guards(); len(got) != 2 || got[0] != "dac" || got[1] != "mac" {
		t.Fatalf("rebuilt stack %v", got)
	}
}

// TestSecretRoundTrip: the token secret survives the envelope.
func TestSecretRoundTrip(t *testing.T) {
	secret := []byte("0123456789abcdef0123456789abcdef")
	got, err := replica.DecodeSecret(replica.EncodeSecret(secret))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(secret) {
		t.Fatalf("secret round-trip: %q", got)
	}
	if _, err := replica.DecodeSecret("not-base64!"); err == nil {
		t.Fatal("garbage secret decoded")
	}
}

// TestPublisherCloseDropsPeers: Close hangs up every stream; a
// connected replica's reader exits and its watchdog takes over.
func TestPublisherCloseDropsPeers(t *testing.T) {
	p := startPrimary(t, 20*time.Millisecond)
	r := p.connect(t, 100*time.Millisecond)
	p.pub.Close()
	waitFor(t, 5*time.Second, "replica to fail closed after publisher close", r.Stale)
	if len(p.pub.Peers()) != 0 {
		t.Fatalf("%d peers survive Close", len(p.pub.Peers()))
	}
	if err := p.pub.Barrier(1, 10*time.Millisecond); err == nil {
		t.Fatal("barrier on a closed publisher succeeded")
	}
	if _, _, err := p.pub.Subscribe("late"); err == nil {
		t.Fatal("subscribe on a closed publisher succeeded")
	}
}

// TestReplicaAppliesRegistryAndLatticeDeltas: the append-only shards
// replicate too — new levels, categories, principals, and group
// membership (including the revoking removal) all land on the replica
// through the ordinary delta stream.
func TestReplicaAppliesRegistryAndLatticeDeltas(t *testing.T) {
	p := startPrimary(t, 50*time.Millisecond)
	r := p.connect(t, 10*time.Second)

	sys := p.w.Sys
	if _, err := sys.Lattice().DefineLevel("ultra"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Lattice().DefineCategory("dept-3"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddPrincipal("carol", "ultra:{dept-3}"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Registry().Apply(principal.AddGroup("ops")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Registry().Apply(principal.AddMember("ops", "carol")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Registry().Apply(principal.AddMember("ops", "alice")); err != nil {
		t.Fatal(err)
	}
	v, err := sys.Registry().RemoveMemberAt("ops", "alice")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "registry deltas to apply", func() bool {
		return r.AppliedVersion() >= v
	})

	frozen := r.System().Registry().Freeze()
	if !frozen.HasGroup("ops") {
		t.Fatal("group ops missing on the replica")
	}
	members, err := r.System().Registry().Members("ops")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 || !strings.Contains(members[0], "carol") {
		t.Fatalf("ops members on replica = %v, want carol only (alice revoked)", members)
	}
	// carol exists with the new lattice coordinates: a context resolves.
	carolTok, err := p.w.Sys.Registry().IssueToken("carol")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.System().NewContextFromToken(carolTok); err != nil {
		t.Fatalf("carol (new level/category) unusable on replica: %v", err)
	}
}

// fakePrimary runs fn on the first accepted connection; used to drive
// the replica client against crafted or broken primaries.
func fakePrimary(t *testing.T, fn func(conn net.Conn, sc *bufio.Scanner)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		fn(conn, sc)
	}()
	return l.Addr().String()
}

// handshake answers the greeting/HELLO/AUTH/SUBSCRIBE sequence like a
// real primary, leaving the snapshot lines to the caller.
func handshake(conn net.Conn, sc *bufio.Scanner) {
	fmt.Fprintf(conn, "OK secext ready\n")
	for i := 0; i < 3 && sc.Scan(); i++ { // HELLO, AUTH, SUBSCRIBE
		cmd, _, _ := strings.Cut(sc.Text(), " ")
		switch cmd {
		case "HELLO":
			fmt.Fprintf(conn, "OK proto 6\n")
		default:
			fmt.Fprintf(conn, "OK\n")
		}
	}
}

// TestConnectRejectsBrokenPrimaries: each malformed handshake or
// snapshot yields a clean error naming the failing stage.
func TestConnectRejectsBrokenPrimaries(t *testing.T) {
	cases := []struct {
		name string
		fn   func(conn net.Conn, sc *bufio.Scanner)
		want string
	}{
		{"bad greeting", func(conn net.Conn, sc *bufio.Scanner) {
			fmt.Fprintf(conn, "HI\n")
		}, "greeting"},
		{"hangup before snapshot", func(conn net.Conn, sc *bufio.Scanner) {
			handshake(conn, sc)
		}, "closed while reading snapshot"},
		{"old proto", func(conn net.Conn, sc *bufio.Scanner) {
			fmt.Fprintf(conn, "OK secext ready\n")
			if sc.Scan() {
				fmt.Fprintf(conn, "OK proto 5\n")
			}
			sc.Scan()
		}, "needs protocol >= 6"},
		{"not a snapshot", func(conn net.Conn, sc *bufio.Scanner) {
			handshake(conn, sc)
			fmt.Fprintf(conn, "GARBAGE x\n")
			sc.Scan()
		}, "expected the snapshot's SNAP-SECRET"},
		{"snapshot not json", func(conn net.Conn, sc *bufio.Scanner) {
			handshake(conn, sc)
			fmt.Fprintf(conn, "SNAP-SECRET c2VjcmV0\nSNAP-HEAD {nope\n")
			sc.Scan()
		}, "decoding epoch header"},
		{"empty snapshot", func(conn net.Conn, sc *bufio.Scanner) {
			handshake(conn, sc)
			fmt.Fprintf(conn, "SNAP-SECRET c2VjcmV0\nSNAP-HEAD {}\n")
			sc.Scan()
		}, "no epoch"},
		{"no levels", func(conn net.Conn, sc *bufio.Scanner) {
			handshake(conn, sc)
			fmt.Fprintf(conn, "SNAP-SECRET c2VjcmV0\nSNAP-HEAD {\"version\":1}\n")
			sc.Scan()
		}, "no lattice levels"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakePrimary(t, tc.fn)
			_, err := replica.Connect(replica.Options{Addr: addr, Token: "x"})
			if err == nil {
				t.Fatal("Connect succeeded against a broken primary")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

// realSnapshot captures a valid snapshot, SNAP-SECRET line and frames,
// from a live publisher so the fake primary can replay it and then
// misbehave mid-stream. It returns the primary version the snapshot
// carries.
func realSnapshot(t *testing.T, p *primary) ([]byte, uint64) {
	t.Helper()
	peer, snap, err := p.pub.Subscribe("capture")
	if err != nil {
		t.Fatal(err)
	}
	p.pub.Remove(peer)
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), p.w.Sys.Names().Version()
}

// frames encodes one message as stream lines.
func frames(t *testing.T, w *names.EpochWire) string {
	t.Helper()
	var b strings.Builder
	if err := names.EncodeEpoch(w, func(f []byte) error {
		b.Write(f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// poisonedStream bootstraps a replica from a fake primary that replays
// snap, then sends lines. It returns the replica and a channel that
// receives once the replica has hung up.
func poisonedStream(t *testing.T, snap []byte, lines string) (*replica.Replica, <-chan struct{}) {
	t.Helper()
	hungUp := make(chan struct{})
	addr := fakePrimary(t, func(conn net.Conn, sc *bufio.Scanner) {
		handshake(conn, sc)
		conn.Write(snap)
		sc.Scan() // the bootstrap ACK
		// An unknown informational line is ignored...
		fmt.Fprintf(conn, "NOTICE upgrade scheduled\n")
		// ...then the poison.
		fmt.Fprint(conn, lines)
		for sc.Scan() { // drain until the replica hangs up
		}
		close(hungUp)
	})
	r, err := replica.Connect(replica.Options{Addr: addr, Token: "x", StaleAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, hungUp
}

// TestStreamFailuresRecordErr: garbage or explicit errors on an
// established stream end it with a recorded Err, and the replica hangs
// up at once; it keeps serving under the bounded-stale contract until
// its deadline.
func TestStreamFailuresRecordErr(t *testing.T) {
	p := startPrimary(t, time.Hour)
	snap, v := realSnapshot(t, p)
	cases := []struct {
		name  string
		lines string
		want  string
	}{
		{"delta not json", "SNAP-HEAD {nope\n", "decoding epoch header"},
		{"delta cut short", "SNAP-HEAD " + fmt.Sprintf(`{"from":%d,"version":%d,"acls":1,"classes":0,"rows":0}`, v, v+1) + "\nSNAP-END\n", "expected a SNAP frame"},
		{"delta bad stack", frames(t, &names.EpochWire{From: v, Version: v + 1, Stack: []string{"quota"}}), "applying v"},
		{"primary error", "ERR boom\n", "primary error: boom"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, hungUp := poisonedStream(t, snap, tc.lines)
			waitFor(t, 5*time.Second, "stream error to be recorded", func() bool {
				return r.Err() != nil
			})
			if !strings.Contains(r.Err().Error(), tc.want) {
				t.Fatalf("Err = %v, want it to mention %q", r.Err(), tc.want)
			}
			select {
			case <-hungUp:
			case <-time.After(2 * time.Second):
				t.Fatal("the replica kept its failed stream open")
			}
			// Bounded-stale: the stream died, but the deadline has not
			// passed — the replica still answers from its last epoch.
			rctx, err := r.System().NewContextFromToken(p.aliceTok)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.System().CheckData(rctx, "/fs/f", secext.Read); err != nil {
				t.Fatalf("replica stopped serving before its deadline: %v", err)
			}
		})
	}
}

// TestOutOfSequenceDeltaFails: a delta applies only on the version the
// replica last applied. A skipped version, a repeated one, and a delta
// from a version the replica has not reached each fail the stream,
// leave the replica at its last good version, and hang up.
func TestOutOfSequenceDeltaFails(t *testing.T) {
	p := startPrimary(t, time.Hour)
	snap, v := realSnapshot(t, p)
	msg := func(from, to uint64) string { return frames(t, &names.EpochWire{From: from, Version: to}) }
	cases := []struct {
		name    string
		lines   string
		applied uint64
	}{
		{"skipped version", msg(v, v+1) + msg(v+2, v+3), v + 1},
		{"repeated version", msg(v, v+1) + msg(v, v+1), v + 1},
		{"from ahead", msg(v+5, v+6), v},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, hungUp := poisonedStream(t, snap, tc.lines)
			select {
			case <-hungUp:
			case <-time.After(5 * time.Second):
				t.Fatal("the replica kept an out-of-sequence stream open")
			}
			waitFor(t, 5*time.Second, "stream error to be recorded", func() bool { return r.Err() != nil })
			if !strings.Contains(r.Err().Error(), "out of sequence") {
				t.Fatalf("Err = %v, want an out-of-sequence error", r.Err())
			}
			if got := r.AppliedVersion(); got != tc.applied {
				t.Fatalf("applied v%d, want v%d", got, tc.applied)
			}
		})
	}
}

// TestFailedReplicaLeavesFleet: a replica that cannot apply a
// publication — here a stack with the stateful quota guard, which does
// not replicate — hangs up, so the primary drops its peer and the next
// barrier returns at once instead of waiting out its timeout.
func TestFailedReplicaLeavesFleet(t *testing.T) {
	p := startPrimary(t, time.Hour)
	r := p.connect(t, time.Hour)
	remove := p.w.Sys.Names().Pipeline().Install(quotaguard.New("/fs"))
	defer remove()
	waitFor(t, 5*time.Second, "the replica to fail on the quota guard", func() bool { return r.Err() != nil })
	if !strings.Contains(r.Err().Error(), "quota") {
		t.Fatalf("Err = %v, want the unreplicable quota guard", r.Err())
	}
	v, err := p.w.Sys.Names().Apply(nil, lattice.Class{}, names.SetACL("/fs/f", secext.NewACL(secext.AllowEveryone(secext.List))))
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 5 * time.Second
	start := time.Now()
	if err := p.pub.Barrier(v, timeout); err != nil || time.Since(start) > timeout/5 {
		t.Fatalf("barrier after the replica failed: %v after %s", err, time.Since(start))
	}
	if peers := p.pub.Stats().Peers; len(peers) != 0 {
		t.Fatalf("the failed replica is still a peer: %+v", peers)
	}
}

// TestSlowPeerDropped: a peer that cannot drain its delta queue is
// dropped (channel closed, removed from the fleet) instead of growing
// the primary's memory without bound.
func TestSlowPeerDropped(t *testing.T) {
	p := startPrimary(t, time.Hour)
	peer, _, err := p.pub.Subscribe("slow")
	if err != nil {
		t.Fatal(err)
	}
	if peer.Acked() != p.w.Sys.Names().Version() {
		t.Fatalf("fresh peer acked v%d, want the snapshot version", peer.Acked())
	}
	// Nobody drains peer.Ch(): overflow the queue.
	open := secext.NewACL(secext.AllowEveryone(secext.Read))
	closed := secext.NewACL(secext.AllowEveryone(secext.List))
	for i := 0; i < 1100; i++ {
		next := open
		if i%2 == 0 {
			next = closed
		}
		if err := p.w.Sys.Names().SetACLUnchecked("/fs/f", next); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "slow peer to be dropped", func() bool {
		return len(p.pub.Peers()) == 0
	})
	// The closed channel is the hangup signal the connection layer sees.
	waitFor(t, 10*time.Second, "peer channel to close", func() bool {
		for {
			select {
			case _, ok := <-peer.Ch():
				if !ok {
					return true
				}
			default:
				return false
			}
		}
	})
}

// TestSnapshotCompressionRoundTrip pins the gzip helpers bench/ prices
// snapshots with: a body survives compress/decompress byte-identically,
// compresses a repetitive policy payload smaller than plaintext, and
// malformed payloads fail with clean errors instead of garbage.
func TestSnapshotCompressionRoundTrip(t *testing.T) {
	body := []byte(strings.Repeat(`{"path":"/svc/printer/enqueue","acl":"allow * read,list"}`, 200))
	gz, err := replica.CompressSnapshot(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(gz) >= len(body) {
		t.Errorf("compressed %d bytes >= raw %d bytes on a repetitive payload", len(gz), len(body))
	}
	back, err := replica.DecompressSnapshot(gz)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(body) {
		t.Error("round trip not identical")
	}

	if _, err := replica.DecompressSnapshot("!!!not-base64!!!"); err == nil {
		t.Error("malformed base64 accepted")
	}
	// Valid base64 of bytes that are not a gzip stream.
	if _, err := replica.DecompressSnapshot("bm90IGd6aXA="); err == nil {
		t.Error("non-gzip payload accepted")
	}
}
