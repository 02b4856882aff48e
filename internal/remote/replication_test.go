package remote

// Protocol-level tests for the v2 additions: HELLO version
// negotiation (both directions, over real TCP), the SUBSCRIBE /
// BARRIER / REPLICAS gates, and the CHECK command. The end-to-end
// replication behavior (stream, staleness, barrier semantics) is
// tested in internal/replica; these tests pin the wire surface.

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"secext"
	"secext/internal/lattice"
	"secext/internal/names"
	"secext/internal/replica"
)

// startReplServer is startServer plus a replication publisher and an
// "admin" principal holding administrate on the root.
func startReplServer(t *testing.T) (addr, adminTok, eveTok string, w *secext.World, pub *replica.Publisher) {
	t.Helper()
	w, err := secext.NewWorld(secext.WorldOptions{
		Levels:     []string{"others", "organization", "local"},
		Categories: []string{"dept-1", "dept-2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []struct{ name, class string }{
		{"admin", "others"}, {"eve", "others"},
	} {
		if _, err := w.Sys.AddPrincipal(spec.name, spec.class); err != nil {
			t.Fatal(err)
		}
	}
	rootACL, err := w.Sys.Names().ACLOf("/")
	if err != nil {
		t.Fatal(err)
	}
	rootACL.Add(secext.Allow("admin", secext.Administrate))
	if err := w.Sys.Names().SetACLUnchecked("/", rootACL); err != nil {
		t.Fatal(err)
	}
	adminTok, err = w.Sys.Registry().IssueToken("admin")
	if err != nil {
		t.Fatal(err)
	}
	eveTok, err = w.Sys.Registry().IssueToken("eve")
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(w.Sys)
	srv.PingInterval = 50 * time.Millisecond
	pub = replica.NewPublisher(w.Sys)
	srv.SetPublisher(pub)
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { pub.Close(); srv.Close(); l.Close() })
	return l.Addr().String(), adminTok, eveTok, w, pub
}

// TestHelloNegotiation: the server clamps to its own version, keeps
// serving v1 commands regardless, and rejects malformed requests
// cleanly.
func TestHelloNegotiation(t *testing.T) {
	addr, aliceTok, _ := startServer(t)
	c := dial(t, addr)
	if got := c.expectOK("HELLO 2"); got != "OK proto 2" {
		t.Errorf("HELLO 2 = %q", got)
	}
	// A client from the future: the server answers with the highest
	// version it speaks, never an error.
	if got := c.expectOK("HELLO 99"); got != fmt.Sprintf("OK proto %d", replica.ProtoVersion) {
		t.Errorf("HELLO 99 = %q", got)
	}
	c.expectErr("HELLO 0")
	c.expectErr("HELLO abc")
	c.expectErr("HELLO")
	// Negotiation does not disturb the v1 session surface.
	c.expectOK("AUTH %s", aliceTok)
	c.expectOK("LS /")
}

// TestOldClientAgainstNewServer: a v1 client never sends HELLO; every
// v1 command keeps working, and the v2-only commands answer with a
// clean, actionable error instead of hanging or disconnecting.
func TestOldClientAgainstNewServer(t *testing.T) {
	addr, adminTok, _, _, _ := startReplServer(t)
	c := dial(t, addr)
	c.expectOK("AUTH %s", adminTok)
	c.expectOK("LS /")
	got := c.expectErr("SUBSCRIBE 0")
	if !strings.Contains(got, "HELLO 2") {
		t.Errorf("SUBSCRIBE without HELLO = %q, want a hint to send HELLO 2", got)
	}
	got = c.expectErr("BARRIER 1")
	if !strings.Contains(got, "HELLO 2") {
		t.Errorf("BARRIER without HELLO = %q, want a hint to send HELLO 2", got)
	}
	// The connection survives the rejections.
	c.expectOK("WHOAMI")
}

// TestNewClientAgainstOldServer: replica.Connect against a primary
// that predates HELLO must fail with a clean error naming the
// protocol gap, not a parse panic or a hang. The old server is
// simulated faithfully: greeting, then "ERR unknown command" for
// anything it does not know — exactly what the pre-v2 dispatch did.
func TestNewClientAgainstOldServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fmt.Fprintf(conn, "OK secext ready\n")
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			cmd, _, _ := strings.Cut(sc.Text(), " ")
			fmt.Fprintf(conn, "ERR unknown command %q\n", cmd)
		}
	}()
	_, err = replica.Connect(replica.Options{Addr: l.Addr().String(), Token: "x"})
	if err == nil {
		t.Fatal("Connect succeeded against a v1 server")
	}
	if !strings.Contains(err.Error(), "version negotiation") {
		t.Errorf("error = %v, want it to name version negotiation", err)
	}
}

// TestSubscribeGates: every precondition of SUBSCRIBE answers with its
// own clean error — protocol, authentication, authorization.
func TestSubscribeGates(t *testing.T) {
	addr, adminTok, eveTok, _, _ := startReplServer(t)

	// Authenticated but still on protocol 1.
	c := dial(t, addr)
	c.expectOK("AUTH %s", adminTok)
	c.expectErr("SUBSCRIBE 0")

	// Protocol 2 but unauthenticated.
	c2 := dial(t, addr)
	c2.expectOK("HELLO 2")
	got := c2.expectErr("SUBSCRIBE 0")
	if !strings.Contains(got, "authenticate") {
		t.Errorf("unauthenticated SUBSCRIBE = %q", got)
	}

	// Authenticated, protocol 2, but no administrate on "/".
	c3 := dial(t, addr)
	c3.expectOK("HELLO 2")
	c3.expectOK("AUTH %s", eveTok)
	got = c3.expectErr("SUBSCRIBE 0")
	if !strings.Contains(got, "denied") {
		t.Errorf("non-admin SUBSCRIBE = %q", got)
	}

	// Malformed.
	c3.expectErr("SUBSCRIBE")
	c3.expectErr("SUBSCRIBE 0 extra")
}

// TestSubscribeWithoutPublisher: a server that never called
// SetPublisher rejects the replication commands with "not enabled".
func TestSubscribeWithoutPublisher(t *testing.T) {
	addr, aliceTok, _ := startServer(t)
	c := dial(t, addr)
	c.expectOK("HELLO 2")
	c.expectOK("AUTH %s", aliceTok)
	for _, cmd := range []string{"SUBSCRIBE 0", "BARRIER 1", "REPLICAS"} {
		got := c.expectErr(cmd)
		if !strings.Contains(got, "not enabled") {
			t.Errorf("%s = %q, want a replication-not-enabled error", cmd, got)
		}
	}
}

// TestBarrierAndReplicasCommands: the admin surface over the wire —
// an empty fleet satisfies any barrier instantly; a connected replica
// shows up in REPLICAS with its ack state.
func TestBarrierAndReplicasCommands(t *testing.T) {
	addr, adminTok, _, w, _ := startReplServer(t)
	c := dial(t, addr)
	c.expectOK("HELLO 2")
	c.expectOK("AUTH %s", adminTok)
	if got := c.expectOK("REPLICAS"); got != "OK 0" {
		t.Errorf("REPLICAS with no fleet = %q", got)
	}
	v := w.Sys.Names().Version()
	if got := c.expectOK("BARRIER %d", v); got != fmt.Sprintf("OK barrier v%d", v) {
		t.Errorf("BARRIER on empty fleet = %q", got)
	}
	c.expectErr("BARRIER")
	c.expectErr("BARRIER abc")
	c.expectErr("BARRIER 1 0")

	r, err := replica.Connect(replica.Options{Addr: addr, Token: adminTok})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := c.expectOK("REPLICAS"); got != "OK 1" {
		t.Errorf("REPLICAS with one replica = %q", got)
	}
	line := c.readLine()
	if !strings.Contains(line, "peer=admin#") || !strings.Contains(line, "acked=v") {
		t.Errorf("REPLICAS peer line = %q", line)
	}
	// A barrier raised over the wire waits for the live replica too.
	nv, err := w.Sys.Names().Apply(nil, lattice.Class{}, names.SetACL("/fs", secext.NewACL(secext.AllowEveryone(secext.List|secext.Write))))
	if err != nil {
		t.Fatal(err)
	}
	c.expectOK("BARRIER %d 5000", nv)
	if r.AppliedVersion() < nv {
		t.Errorf("barrier returned OK at replica version v%d, want >= v%d",
			r.AppliedVersion(), nv)
	}
}

// TestCheckCommand: the remote mediation probe answers allow and deny
// with the guard's own reason.
func TestCheckCommand(t *testing.T) {
	addr, aliceTok, eveTok := startServer(t)
	alice := dial(t, addr)
	alice.expectOK("AUTH %s", aliceTok)
	if got := alice.expectOK("CHECK /svc list"); got != "OK allowed" {
		t.Errorf("CHECK /svc list = %q", got)
	}
	if got := alice.expectOK("CHECK /svc/fs/read execute"); got != "OK allowed" {
		t.Errorf("CHECK /svc/fs/read execute = %q", got)
	}
	got := alice.expectErr("CHECK /svc administrate")
	if !strings.Contains(got, "denied") {
		t.Errorf("CHECK /svc administrate = %q", got)
	}
	alice.expectErr("CHECK /svc not-a-mode")
	alice.expectErr("CHECK /svc")

	// Unauthenticated CHECK is rejected like every mediated command.
	anon := dial(t, addr)
	anon.expectErr("CHECK /svc list")
	_ = eveTok
}

// TestSnapshotCompressionNegotiation: a protocol-3 subscriber receives
// SNAPSHOT-GZ and the payload decompresses to the exact envelope a
// protocol-2 subscriber receives in plaintext; the publisher's stats
// record both the raw and the compressed sizes.
func TestSnapshotCompressionNegotiation(t *testing.T) {
	addr, adminTok, _, _, pub := startReplServer(t)

	subscribe := func(proto int) (kind, payload string) {
		t.Helper()
		c := dial(t, addr)
		c.expectOK("HELLO %d", proto)
		c.expectOK("AUTH %s", adminTok)
		c.expectOK("SUBSCRIBE 0")
		kind, payload, _ = strings.Cut(c.readLine(), " ")
		return kind, payload
	}

	kind2, plain := subscribe(2)
	if kind2 != "SNAPSHOT" {
		t.Fatalf("proto-2 subscriber got %q, want SNAPSHOT", kind2)
	}
	kind3, gz := subscribe(3)
	if kind3 != "SNAPSHOT-GZ" {
		t.Fatalf("proto-3 subscriber got %q, want SNAPSHOT-GZ", kind3)
	}
	body, err := replica.DecompressSnapshot(gz)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != plain {
		t.Errorf("decompressed snapshot differs from the plaintext form:\n gz: %.120s...\n v2: %.120s...", body, plain)
	}
	if len(gz) >= len(plain) {
		t.Errorf("compressed payload (%d bytes) not smaller than plaintext (%d bytes)", len(gz), len(plain))
	}

	st := pub.Stats()
	if st.Snapshots != 2 || st.SnapshotsGz != 1 {
		t.Errorf("snapshots = %d (%d gz), want 2 (1 gz)", st.Snapshots, st.SnapshotsGz)
	}
	if st.SnapshotGzBytes == 0 || st.SnapshotGzBytes >= st.SnapshotBytes {
		t.Errorf("gz bytes %d vs raw bytes %d: compression not recorded", st.SnapshotGzBytes, st.SnapshotBytes)
	}
}
