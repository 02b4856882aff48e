package remote

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"

	"secext"
)

// client is a test-side protocol client.
type client struct {
	t    *testing.T
	conn net.Conn
	rd   *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &client{t: t, conn: conn, rd: bufio.NewReader(conn)}
	if got := c.readLine(); !strings.HasPrefix(got, "OK secext ready") {
		t.Fatalf("greeting = %q", got)
	}
	return c
}

func (c *client) readLine() string {
	c.t.Helper()
	line, err := c.rd.ReadString('\n')
	if err != nil {
		c.t.Fatalf("read: %v", err)
	}
	return strings.TrimSpace(line)
}

func (c *client) cmd(format string, args ...any) string {
	c.t.Helper()
	fmt.Fprintf(c.conn, format+"\n", args...)
	return c.readLine()
}

func (c *client) expectOK(format string, args ...any) string {
	c.t.Helper()
	got := c.cmd(format, args...)
	if !strings.HasPrefix(got, "OK") {
		c.t.Fatalf("%s: got %q, want OK", fmt.Sprintf(format, args...), got)
	}
	return got
}

func (c *client) expectErr(format string, args ...any) string {
	c.t.Helper()
	got := c.cmd(format, args...)
	if !strings.HasPrefix(got, "ERR") {
		c.t.Fatalf("%s: got %q, want ERR", fmt.Sprintf(format, args...), got)
	}
	return got
}

// startServer builds a world with two principals and serves it on a
// loopback listener.
func startServer(t *testing.T) (addr, aliceTok, eveTok string) {
	t.Helper()
	addr, aliceTok, eveTok, _ = startCountingServer(t)
	return addr, aliceTok, eveTok
}

// startCountingServer is startServer with a listener that counts the
// server's writes on every connection it accepts.
func startCountingServer(t *testing.T) (addr, aliceTok, eveTok string, l *countingListener) {
	t.Helper()
	w, err := secext.NewWorld(secext.WorldOptions{
		Levels:     []string{"others", "organization", "local"},
		Categories: []string{"dept-1", "dept-2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.AddPrincipal("alice", "organization:{dept-1}"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.AddPrincipal("eve", "others"); err != nil {
		t.Fatal(err)
	}
	aliceTok, err = w.Sys.Registry().IssueToken("alice")
	if err != nil {
		t.Fatal(err)
	}
	eveTok, err = w.Sys.Registry().IssueToken("eve")
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l = &countingListener{Listener: inner}
	srv := NewServer(w.Sys)
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { srv.Close(); l.Close() })
	return l.Addr().String(), aliceTok, eveTok, l
}

func TestAppendFieldsMatchesStringsFields(t *testing.T) {
	for _, in := range []string{
		"", "   ", "CHECK /fs/a read", "  CHECK\t/fs/a   read,write  ",
		"WRITE /fs/x some words of text", "a\u00a0b\u2003c", "\u3000lead",
	} {
		var buf [4]string
		got, want := appendFields(buf[:0], in), strings.Fields(in)
		if len(got) != len(want) {
			t.Errorf("appendFields(%q) = %q, want %q", in, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("appendFields(%q) = %q, want %q", in, got, want)
				break
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		var buf [4]string
		if len(appendFields(buf[:0], "CHECK /fs/a read")) != 3 {
			t.Fatal("wrong field count")
		}
	}); n != 0 {
		t.Errorf("appendFields allocates %v times for a 3-word line, want 0", n)
	}
}

func TestAuthRequired(t *testing.T) {
	addr, aliceTok, _ := startServer(t)
	c := dial(t, addr)
	c.expectErr("LS /")
	c.expectErr("READ /fs/x")
	c.expectErr("AUTH bad-token")
	got := c.expectOK("AUTH %s", aliceTok)
	if !strings.Contains(got, "alice") || !strings.Contains(got, "organization:{dept-1}") {
		t.Errorf("AUTH reply = %q", got)
	}
	if got := c.expectOK("WHOAMI"); !strings.Contains(got, "alice") {
		t.Errorf("WHOAMI = %q", got)
	}
}

func TestRemoteFileRoundTrip(t *testing.T) {
	addr, aliceTok, eveTok := startServer(t)
	alice := dial(t, addr)
	alice.expectOK("AUTH %s", aliceTok)
	alice.expectOK("CREATE /fs/remote-note")
	alice.expectOK("WRITE /fs/remote-note hello from afar")
	got := alice.expectOK("READ /fs/remote-note")
	if !strings.Contains(got, "hello from afar") {
		t.Errorf("READ = %q", got)
	}
	if got := alice.expectOK("LS /fs"); !strings.Contains(got, "remote-note") {
		t.Errorf("LS = %q", got)
	}

	// Eve's connection carries Eve's authority, nothing more.
	eve := dial(t, addr)
	eve.expectOK("AUTH %s", eveTok)
	if got := eve.expectErr("READ /fs/remote-note"); !strings.Contains(got, "denied") {
		t.Errorf("eve READ = %q", got)
	}
	eve.expectErr("RM /fs/remote-note")

	alice.expectOK("RM /fs/remote-note")
}

func TestRemoteMessaging(t *testing.T) {
	addr, aliceTok, eveTok := startServer(t)
	alice := dial(t, addr)
	alice.expectOK("AUTH %s", aliceTok)
	alice.expectOK("OPEN inbox")

	eve := dial(t, addr)
	eve.expectOK("AUTH %s", eveTok)
	// Eve (below) can report up into alice's endpoint...
	eve.expectOK("SEND inbox psst from eve")
	// ...but cannot receive from it.
	eve.expectErr("RECV inbox")

	got := alice.expectOK("RECV inbox")
	if !strings.Contains(got, "eve") || !strings.Contains(got, "psst from eve") {
		t.Errorf("RECV = %q", got)
	}
}

func TestRemoteJournalAndCall(t *testing.T) {
	addr, aliceTok, _ := startServer(t)
	c := dial(t, addr)
	c.expectOK("AUTH %s", aliceTok)
	c.expectOK("JOURNAL remote event")
	// CALL of a denied or missing service reports cleanly.
	c.expectErr("CALL /svc/nonexistent")
	// Usage errors.
	c.expectErr("LS")
	c.expectErr("WRITE /fs/x")
	c.expectErr("FROBNICATE")
	// QUIT closes politely.
	if got := c.cmd("QUIT"); !strings.HasPrefix(got, "OK bye") {
		t.Errorf("QUIT = %q", got)
	}
}

func TestProtocolEdgeCases(t *testing.T) {
	addr, aliceTok, eveTok := startServer(t)
	c := dial(t, addr)
	// Usage errors before and after auth.
	c.expectErr("AUTH")
	c.expectErr("AUTH a b")
	c.expectOK("AUTH %s", aliceTok)
	c.expectErr("CREATE")
	c.expectErr("APPEND /fs/x")
	c.expectErr("CALL")
	c.expectErr("OPEN")
	c.expectErr("SEND ep")
	c.expectErr("RECV")
	c.expectErr("JOURNAL")
	// Re-AUTH switches identity mid-session.
	got := c.expectOK("AUTH %s", eveTok)
	if !strings.Contains(got, "eve") {
		t.Errorf("re-auth = %q", got)
	}
	if got := c.expectOK("WHOAMI"); !strings.Contains(got, "eve") {
		t.Errorf("WHOAMI after re-auth = %q", got)
	}
	// Recv on an empty endpoint reports an error, not a hang.
	c.expectOK("AUTH %s", aliceTok)
	c.expectOK("OPEN empty-ep")
	c.expectErr("RECV empty-ep")
	// Blank lines are ignored; the next command still works.
	fmt.Fprintf(c.conn, "\n\nWHOAMI\n")
	if got := c.readLine(); !strings.HasPrefix(got, "OK") {
		t.Errorf("after blank lines: %q", got)
	}
}

func TestServerClose(t *testing.T) {
	addr, aliceTok, _ := startServer(t)
	c := dial(t, addr)
	c.expectOK("AUTH %s", aliceTok)
	// Closing the server drops the connection; subsequent reads fail
	// rather than hang. (startServer's cleanup calls Close; here we
	// just verify an early QUIT also leaves the server healthy for
	// other connections.)
	if got := c.cmd("QUIT"); !strings.HasPrefix(got, "OK bye") {
		t.Errorf("QUIT = %q", got)
	}
	c2 := dial(t, addr)
	c2.expectOK("AUTH %s", aliceTok)
}

func TestConcurrentSessions(t *testing.T) {
	addr, aliceTok, eveTok := startServer(t)
	done := make(chan bool, 2)
	go func() {
		c := dial(t, addr)
		c.expectOK("AUTH %s", aliceTok)
		for i := 0; i < 30; i++ {
			c.expectOK("CREATE /fs/a%d", i)
		}
		done <- true
	}()
	go func() {
		c := dial(t, addr)
		c.expectOK("AUTH %s", eveTok)
		for i := 0; i < 30; i++ {
			c.expectOK("CREATE /fs/e%d", i)
		}
		done <- true
	}()
	<-done
	<-done
}

// TestRemoteQuotaGuard installs the deny-by-default quota guard in the
// served world and shows the budget being enforced over the wire: a
// subject with no budget is refused outright, and a granted budget runs
// out. The quota guard is stateful, so the decision cache is bypassed
// and every remote request reaches the meter.
func TestRemoteQuotaGuard(t *testing.T) {
	quota := secext.NewQuotaGuard("/fs")
	w, err := secext.NewWorld(secext.WorldOptions{
		Levels:     []string{"others", "organization", "local"},
		Categories: []string{"dept-1", "dept-2"},
		Guards:     []secext.Guard{quota},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.AddPrincipal("alice", "organization:{dept-1}"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.AddPrincipal("eve", "others"); err != nil {
		t.Fatal(err)
	}
	aliceTok, err := w.Sys.Registry().IssueToken("alice")
	if err != nil {
		t.Fatal(err)
	}
	eveTok, err := w.Sys.Registry().IssueToken("eve")
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(w.Sys)
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { srv.Close(); l.Close() })

	quota.SetQuota("alice", 1000)
	alice := dial(t, l.Addr().String())
	alice.expectOK("AUTH %s", aliceTok)
	alice.expectOK("CREATE /fs/metered")
	alice.expectOK("WRITE /fs/metered rationed bytes")
	alice.expectOK("READ /fs/metered")
	if rem, ok := quota.Remaining("alice"); !ok || rem >= 1000 {
		t.Errorf("Remaining(alice) = %d, %v; want a spent budget", rem, ok)
	}

	// Eve has no budget: deny-by-default, with the guard's reason on
	// the wire. She works on her own file so the discretionary and
	// mandatory guards allow and the quota guard decides.
	eve := dial(t, l.Addr().String())
	eve.expectOK("AUTH %s", eveTok)
	eve.expectOK("CREATE /fs/eve-file")
	if got := eve.expectErr("WRITE /fs/eve-file denied bytes"); !strings.Contains(got, "quota: no budget assigned") {
		t.Errorf("eve WRITE = %q, want quota denial", got)
	}

	// Alice's budget runs dry.
	quota.SetQuota("alice", 0)
	if got := alice.expectErr("READ /fs/metered"); !strings.Contains(got, "quota: exhausted") {
		t.Errorf("alice exhausted READ = %q", got)
	}
}

func TestRemoteStatsAndTrace(t *testing.T) {
	addr, aliceTok, _ := startServer(t)
	c := dial(t, addr)
	c.expectErr("STATS") // introspection needs authority too
	c.expectErr("TRACE")
	c.expectOK("AUTH %s", aliceTok)
	c.expectOK("CREATE /fs/stats-note")

	got := c.expectOK("STATS")
	for _, want := range []string{"mode=sampled", "mediations=", "cache_hits=", "traces="} {
		if !strings.Contains(got, want) {
			t.Errorf("STATS = %q, missing %q", got, want)
		}
	}

	c.expectErr("TRACE nope")
	c.expectErr("TRACE 0")
	c.expectErr("TRACE 1 2")
	head := c.expectOK("TRACE 5")
	var k int
	if _, err := fmt.Sscanf(head, "OK %d", &k); err != nil {
		t.Fatalf("TRACE header = %q: %v", head, err)
	}
	// The sampler always selects the first mediation after boot, so a
	// fresh world has at least one trace to return.
	if k < 1 {
		t.Fatalf("TRACE returned %d traces, want at least 1", k)
	}
	for i := 0; i < k; i++ {
		line := c.readLine()
		if !strings.Contains(line, "trace #") || !strings.Contains(line, "seq=") {
			t.Errorf("trace line %d = %q", i, line)
		}
	}
}

// readBody reads the k payload lines announced by an "OK <k>" header
// and returns them joined.
func (c *client) readBody(head string) string {
	c.t.Helper()
	var k int
	if _, err := fmt.Sscanf(head, "OK %d", &k); err != nil {
		c.t.Fatalf("framing header = %q: %v", head, err)
	}
	lines := make([]string, k)
	for i := range lines {
		lines[i] = c.readLine()
	}
	return strings.Join(lines, "\n")
}

func TestRemoteStatsTraceArgErrors(t *testing.T) {
	addr, aliceTok, _ := startServer(t)
	c := dial(t, addr)
	c.expectOK("AUTH %s", aliceTok)
	// Malformed arguments are usage errors, not silent defaults.
	if got := c.expectErr("STATS extra"); !strings.Contains(got, "usage: STATS") {
		t.Errorf("STATS extra = %q", got)
	}
	for _, bad := range []string{"TRACE nope", "TRACE 0", "TRACE -3", "TRACE 1 2"} {
		if got := c.expectErr(bad); !strings.Contains(got, "usage: TRACE [n]") {
			t.Errorf("%s = %q", bad, got)
		}
	}
	for _, bad := range []string{"EPOCHS nope", "EPOCHS 0", "EPOCHS 1 2"} {
		if got := c.expectErr(bad); !strings.Contains(got, "usage: EPOCHS [n]") {
			t.Errorf("%s = %q", bad, got)
		}
	}
	c.expectErr("EXPLAIN")
	c.expectErr("EXPLAIN /fs")
	c.expectErr("EXPLAIN /fs read extra")
}

// TestRemoteTelemetryDisabled serves a world built with telemetry off:
// the introspection commands that depend on it report the condition
// instead of pretending to succeed, while EXPLAIN (which re-evaluates
// against the epoch directly) still works.
func TestRemoteTelemetryDisabled(t *testing.T) {
	w, err := secext.NewWorld(secext.WorldOptions{
		Levels:     []string{"others", "organization", "local"},
		Categories: []string{"dept-1", "dept-2"},
		Telemetry:  secext.TelemetryOptions{Mode: secext.TelemetryOff},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.AddPrincipal("alice", "organization:{dept-1}"); err != nil {
		t.Fatal(err)
	}
	tok, err := w.Sys.Registry().IssueToken("alice")
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(w.Sys)
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { srv.Close(); l.Close() })

	c := dial(t, l.Addr().String())
	c.expectOK("AUTH %s", tok)
	for _, cmd := range []string{"STATS", "TRACE", "EPOCHS"} {
		if got := c.expectErr(cmd); !strings.Contains(got, "telemetry disabled") {
			t.Errorf("%s with telemetry off = %q", cmd, got)
		}
	}
	c.expectOK("CREATE /fs/dark-note")
	head := c.expectOK("EXPLAIN /fs/dark-note read")
	if body := c.readBody(head); !strings.Contains(body, "ALLOW alice read on /fs/dark-note") {
		t.Errorf("EXPLAIN with telemetry off = %q", body)
	}
}

// TestRemoteExplain drives the full provenance pipeline over real TCP:
// an allowed check names the exact ACL entry that granted it, and a
// denied check names the fail-closed ACL verdict, the decisive guard,
// and the MAC dominance comparison with both classes.
func TestRemoteExplain(t *testing.T) {
	addr, aliceTok, eveTok := startServer(t)
	alice := dial(t, addr)
	alice.expectOK("AUTH %s", aliceTok)
	alice.expectOK("CREATE /fs/secret")

	// Allowed: the owner entry created by /svc/fs/create decides.
	body := alice.readBody(alice.expectOK("EXPLAIN /fs/secret read"))
	for _, want := range []string{
		"ALLOW alice read on /fs/secret",
		"epoch v",
		"subject class: organization:{dept-1}",
		"matched: allow alice read,write,write-append,administrate,delete",
		"want read => ALLOW",
		"mac: subject organization:{dept-1} vs object organization:{dept-1}",
		"verdict: allow",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("allowed EXPLAIN missing %q in:\n%s", want, body)
		}
	}
	if !strings.Contains(body, "route compiled") && !strings.Contains(body, "route walk") {
		t.Errorf("allowed EXPLAIN names no route:\n%s", body)
	}

	// Denied: eve (class others, below the file) gets the whole story —
	// no ACL entry matches her, the DAC guard is decisive, and the MAC
	// report shows she does not dominate the object.
	eve := dial(t, addr)
	eve.expectOK("AUTH %s", eveTok)
	body = eve.readBody(eve.expectOK("EXPLAIN /fs/secret read"))
	for _, want := range []string{
		"DENY eve read on /fs/secret",
		"route compiled", // the compiled path decides a missing grant
		"no entries matched the subject (fail-closed)",
		"want read => DENY",
		"<- decided here",
		"mac: subject others vs object organization:{dept-1}",
		"subject dominates object: false",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("denied EXPLAIN missing %q in:\n%s", want, body)
		}
	}

	// A structurally missing path explains the resolve failure.
	body = alice.readBody(alice.expectOK("EXPLAIN /fs/no-such read"))
	if !strings.Contains(body, "resolve:") {
		t.Errorf("missing-path EXPLAIN = %q", body)
	}
	// Bad modes are an error, not a panic.
	alice.expectErr("EXPLAIN /fs/secret frobnicate")
}

// TestRemoteEpochs reads the epoch-transition journal over the wire:
// each mutation published at least one epoch, and the rendered records
// carry version, shard, and compile information.
func TestRemoteEpochs(t *testing.T) {
	addr, aliceTok, _ := startServer(t)
	c := dial(t, addr)
	c.expectOK("AUTH %s", aliceTok)
	c.expectOK("CREATE /fs/epoch-a")
	c.expectOK("CREATE /fs/epoch-b")

	head := c.expectOK("EPOCHS 5")
	var k int
	if _, err := fmt.Sscanf(head, "OK %d", &k); err != nil {
		t.Fatalf("EPOCHS header = %q: %v", head, err)
	}
	if k < 2 {
		t.Fatalf("EPOCHS returned %d records, want at least 2", k)
	}
	for i := 0; i < k; i++ {
		line := c.readLine()
		for _, want := range []string{"epoch v", "shards=", "compile=", "publish="} {
			if !strings.Contains(line, want) {
				t.Errorf("EPOCHS line %d = %q, missing %q", i, line, want)
			}
		}
	}
	// Unauthenticated connections get nothing.
	anon := dial(t, addr)
	anon.expectErr("EPOCHS")
	anon.expectErr("EXPLAIN /fs/epoch-a read")
}
