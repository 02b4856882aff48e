package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"time"
)

// checkLimit is the CHECK latency limit: a failed or wrong-verdict
// request is recorded as taking at least this long.
const checkLimit = time.Millisecond

// client is one authenticated line-protocol connection. Requests are
// precomputed lines; the client keeps its place in its request table
// across phases.
type client struct {
	c    net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	port int
	// seq counts lines sent, AUTH included; the server-side tap counts
	// the same lines, which pairs client and server spans.
	seq  int
	next int
}

func dialRaw(addr string) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{c: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc), port: nc.LocalAddr().(*net.TCPAddr).Port}, nil
}

// dial connects to a secext server, consumes its banner and
// authenticates with the token.
func dial(addr, token string) (*client, error) {
	c, err := dialRaw(addr)
	if err != nil {
		return nil, err
	}
	banner, err := c.r.ReadString('\n')
	if err != nil || !strings.HasPrefix(banner, "OK") {
		c.close()
		return nil, fmt.Errorf("banner %q: %v", banner, err)
	}
	reply, err := c.roundTrip("AUTH " + token + "\n")
	if err != nil || !bytes.HasPrefix(reply, []byte("OK")) {
		c.close()
		return nil, fmt.Errorf("auth %q: %v", reply, err)
	}
	return c, nil
}

func (c *client) close() { c.c.Close() }

// roundTrip sends one line and returns the reply line, valid until the
// next read.
func (c *client) roundTrip(line string) ([]byte, error) {
	c.w.WriteString(line)
	c.seq++
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.r.ReadSlice('\n')
}

// verdict parses a CHECK reply.
func verdict(reply []byte) (allowed bool, err error) {
	switch {
	case bytes.HasPrefix(reply, []byte("OK allowed")):
		return true, nil
	case bytes.HasPrefix(reply, []byte("ERR denied")):
		return false, nil
	}
	return false, fmt.Errorf("protocol error: %q", bytes.TrimSpace(reply))
}

// loopResult is one connection's share of a closed-loop phase.
type loopResult struct {
	lat    []time.Duration // per request, one in flight only
	ops    int
	failed int
	wall   time.Duration
	spans  []clientSpan // traced one-in-flight phases only
	err    error        // the first failure, for the report
}

type clientSpan struct {
	seq        int
	start, end time.Time
}

func (r *loopResult) fail(err error) {
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

// closedLoop sends one request at a time until the deadline and has
// check judge every reply; a rejected reply counts as failed and as
// taking at least checkLimit.
func (c *client) closedLoop(reqs []request, until time.Time, traced bool, check func(*request, []byte) error) loopResult {
	var res loopResult
	res.lat = make([]time.Duration, 0, 1<<16)
	start := time.Now()
	for now := start; now.Before(until); c.next++ {
		q := &reqs[c.next%len(reqs)]
		t0 := time.Now()
		reply, err := c.roundTrip(q.line)
		now = time.Now()
		res.ops++
		d := now.Sub(t0)
		if err != nil {
			res.fail(err)
			res.lat = append(res.lat, max(d, checkLimit))
			break
		}
		if err := check(q, reply); err != nil {
			res.fail(err)
			d = max(d, checkLimit)
		}
		res.lat = append(res.lat, d)
		if traced {
			res.spans = append(res.spans, clientSpan{seq: c.seq - 1, start: t0, end: now})
		}
	}
	res.wall = time.Since(start)
	return res
}

// checkVerdict accepts a CHECK reply carrying the expected verdict.
func checkVerdict(q *request, reply []byte) error {
	if ok, err := verdict(reply); err != nil || ok != q.allow {
		return fmt.Errorf("CHECK %s %v: got %q, want allowed=%v", q.path, q.modes, bytes.TrimSpace(reply), q.allow)
	}
	return nil
}

// checkEcho accepts the request line sent back unchanged.
func checkEcho(q *request, reply []byte) error {
	if string(reply) != q.line {
		return fmt.Errorf("echo %q: got %q", q.line, reply)
	}
	return nil
}

// pipelined keeps depth requests in flight until the deadline, then
// drains, checking every verdict. Pending writes are flushed only when
// the next read would block, so a burst of replies is answered with one
// write.
func (c *client) pipelined(reqs []request, depth int, until time.Time) loopResult {
	var res loopResult
	start := time.Now()
	base, sent, recv := c.next, 0, 0
	send := func() {
		c.w.WriteString(reqs[(base+sent)%len(reqs)].line)
		sent++
		c.seq++
	}
	for sent < depth {
		send()
	}
	for recv < sent {
		if c.r.Buffered() == 0 {
			if err := c.w.Flush(); err != nil {
				res.err = err
				break
			}
		}
		reply, err := c.r.ReadSlice('\n')
		if err != nil {
			res.err = err
			break
		}
		q := &reqs[(base+recv)%len(reqs)]
		recv++
		if err := checkVerdict(q, reply); err != nil {
			res.fail(err)
		}
		if time.Now().Before(until) {
			send()
		}
	}
	res.failed += sent - recv // unanswered after a transport error
	res.ops = sent
	res.wall = time.Since(start)
	c.next = base + sent
	return res
}

// echoServer answers each line with the same line through the
// scan-then-flush pattern remote.Server uses, so a round trip against
// it prices loopback transit and the two syscalls without secext.
type echoServer struct {
	l    net.Listener
	done chan struct{}
}

func startEcho(tp *tap) (*echoServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if tp != nil {
		l = tp.wrap(l)
	}
	s := &echoServer{l: l, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		w := bufio.NewWriter(conn)
		for sc.Scan() {
			w.Write(sc.Bytes())
			w.WriteByte('\n')
			if w.Flush() != nil {
				return
			}
		}
	}()
	return s, nil
}

func (s *echoServer) close() {
	s.l.Close()
	<-s.done
}
