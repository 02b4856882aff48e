package remote

// Pipelining tests: a burst of requests sent in one write is answered
// in order, with one server write per burst, and no reply is held back
// by a half-close, a QUIT, a BARRIER that waits, or an overlong line.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secext"
	"secext/internal/lattice"
	"secext/internal/names"
)

// countingListener wraps a listener so that each accepted connection
// counts the server's write calls.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns map[string]*countingConn // by the client's address
}

type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.mu.Lock()
	if l.conns == nil {
		l.conns = make(map[string]*countingConn)
	}
	l.conns[c.RemoteAddr().String()] = cc
	l.mu.Unlock()
	return cc, nil
}

// Write counts before it writes, so a client that has read a reply
// sees the write that carried it counted.
func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// writes returns the number of writes the server has made on the
// connection of client c so far.
func (l *countingListener) writes(t *testing.T, c *client) int64 {
	t.Helper()
	l.mu.Lock()
	cc := l.conns[c.conn.LocalAddr().String()]
	l.mu.Unlock()
	if cc == nil {
		t.Fatalf("no server connection for client %s", c.conn.LocalAddr())
	}
	return cc.writes.Load()
}

// pipelinedChecks returns n CHECK lines mixing allowed requests,
// denials and a missing path, and the reply to each, asked one at a
// time on c.
func pipelinedChecks(c *client, n int) (reqs, want []string) {
	c.t.Helper()
	kinds := []string{
		"CHECK /svc list",
		"CHECK /svc administrate",
		"CHECK /svc/fs/read execute",
		"CHECK /fs/no-such read",
	}
	answer := make(map[string]string, len(kinds))
	for _, k := range kinds {
		answer[k] = c.cmd("%s", k)
	}
	for i := 0; i < n; i++ {
		k := kinds[(i*7+i/3)%len(kinds)]
		reqs, want = append(reqs, k), append(want, answer[k])
	}
	return reqs, want
}

// send writes the request lines to c in one write.
func (c *client) send(lines ...string) {
	c.t.Helper()
	if _, err := io.WriteString(c.conn, strings.Join(lines, "\n")+"\n"); err != nil {
		c.t.Fatal(err)
	}
}

func (c *client) expectLines(want []string) {
	c.t.Helper()
	for i, w := range want {
		if got := c.readLine(); got != w {
			c.t.Fatalf("reply %d = %q, want %q", i, got, w)
		}
	}
}

// expectClosed reads until the server's close arrives and fails on any
// further reply.
func (c *client) expectClosed() {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := c.rd.ReadString('\n')
	var ne net.Error
	switch {
	case line != "":
		c.t.Fatalf("read %q after the last reply, want the connection closed", line)
	case errors.As(err, &ne) && ne.Timeout():
		c.t.Fatal("connection still open")
	}
}

// TestPipelinedBurstOneWrite: 32 CHECKs sent in one write get 32
// in-order replies, identical to the one-at-a-time answers, in at most
// two server writes.
func TestPipelinedBurstOneWrite(t *testing.T) {
	addr, aliceTok, _, l := startCountingServer(t)
	c := dial(t, addr)
	c.expectOK("AUTH %s", aliceTok)
	reqs, want := pipelinedChecks(c, 32)
	before := l.writes(t, c)
	c.send(reqs...)
	c.expectLines(want)
	if n := l.writes(t, c) - before; n > 2 {
		t.Errorf("32 pipelined CHECKs took %d server writes, want <= 2", n)
	}
	// The connection still serves one request at a time afterwards.
	c.expectOK("WHOAMI")
}

// TestPipelinedHalfClose: replies to requests pipelined ahead of a
// half-close are all written before the server closes.
func TestPipelinedHalfClose(t *testing.T) {
	addr, aliceTok, _ := startServer(t)
	c := dial(t, addr)
	c.expectOK("AUTH %s", aliceTok)
	reqs, want := pipelinedChecks(c, 16)
	c.send(reqs...)
	if err := c.conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	c.expectLines(want)
	c.expectClosed()
}

// TestPipelinedQuit: replies to requests pipelined ahead of QUIT are all
// written, then "OK bye", then the server closes.
func TestPipelinedQuit(t *testing.T) {
	addr, aliceTok, _ := startServer(t)
	c := dial(t, addr)
	c.expectOK("AUTH %s", aliceTok)
	reqs, want := pipelinedChecks(c, 16)
	c.send(append(reqs, "QUIT", "WHOAMI")...)
	c.expectLines(append(want, "OK bye"))
	c.expectClosed()
}

// TestPipelinedBarrierFlushes: a CHECK pipelined ahead of a BARRIER
// that waits on a replica which never acks is answered before the
// barrier gives up.
func TestPipelinedBarrierFlushes(t *testing.T) {
	addr, adminTok, _, w, _ := startReplServer(t)
	sub := dial(t, addr)
	sub.expectOK("HELLO 6")
	sub.expectOK("AUTH %s", adminTok)
	sub.expectOK("SUBSCRIBE 0")
	if kind, _, _ := strings.Cut(sub.readLine(), " "); kind != "SNAP-SECRET" {
		t.Fatalf("subscriber got %q, want SNAP-SECRET", kind)
	}
	// The subscriber never acks what follows.
	v, err := w.Sys.Names().Apply(nil, lattice.Class{}, names.SetACL("/fs", secext.NewACL(secext.AllowEveryone(secext.List))))
	if err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr)
	c.expectOK("HELLO 2")
	c.expectOK("AUTH %s", adminTok)
	want := c.cmd("CHECK /fs list")
	const timeout = 2 * time.Second
	start := time.Now()
	c.send("CHECK /fs list", fmt.Sprintf("BARRIER %d %d", v, timeout.Milliseconds()))
	c.conn.SetReadDeadline(start.Add(timeout / 2))
	c.expectLines([]string{want})
	if d := time.Since(start); d > timeout/4 {
		t.Errorf("CHECK reply took %v behind a waiting BARRIER", d)
	}
	c.conn.SetReadDeadline(time.Now().Add(2 * timeout))
	if got := c.readLine(); !strings.Contains(got, "timed out") {
		t.Errorf("BARRIER = %q, want a timeout", got)
	}
}

// TestMultiLineReplyOneWrite: TRACE and EXPLAIN answer with a header
// and their body lines in one write.
func TestMultiLineReplyOneWrite(t *testing.T) {
	addr, aliceTok, _, l := startCountingServer(t)
	c := dial(t, addr)
	c.expectOK("AUTH %s", aliceTok)
	c.expectOK("CREATE /fs/note")
	for _, req := range []string{"TRACE 3", "EXPLAIN /fs/note read"} {
		before := l.writes(t, c)
		c.readBody(c.expectOK("%s", req))
		if n := l.writes(t, c) - before; n != 1 {
			t.Errorf("%s: reply took %d server writes, want 1", req, n)
		}
	}
}

// TestRequestLineBound: a line longer than the server's bound is
// refused and the connection closed; a long line within the bound gets
// an ordinary reply on a connection that stays open.
func TestRequestLineBound(t *testing.T) {
	addr, aliceTok, _ := startServer(t)
	c := dial(t, addr)
	c.expectOK("AUTH %s", aliceTok)
	long := "/fs/" + strings.Repeat("x", 512<<10)
	if got := c.expectErr("CHECK %s read", long); strings.Contains(got, "line too long") {
		t.Fatalf("512 KiB CHECK refused: %.80q", got)
	}
	c.expectOK("WHOAMI")

	over := dial(t, addr)
	go func() {
		// The server stops reading past its bound; the rest of this
		// write fails once it closes.
		_, _ = io.WriteString(over.conn, strings.Repeat("y", 2<<20))
	}()
	over.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if got := over.readLine(); got != "ERR line too long" {
		t.Fatalf("2 MiB line = %.80q, want ERR line too long", got)
	}
	over.expectClosed()
}
