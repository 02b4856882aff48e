// Package remote exposes a secext world over a line-oriented TCP
// protocol: clients authenticate with a principal token and then issue
// mediated commands. It is the distributed face of the model — remote
// code and remote users (the paper's applets "originating from outside
// the organization" arrive over exactly such connections) get a subject
// bound to their authenticated principal, and every command funnels
// through the same reference monitor as local callers.
//
// Protocol (one request per line, responses are "OK[ detail]" or
// "ERR <reason>"):
//
//	AUTH <token>             bind the connection to a principal
//	LS <path>                list a name-space node
//	CREATE <path>            create a file via /svc/fs/create
//	READ <path>              read a file (response: OK <quoted bytes>)
//	WRITE <path> <text...>   destructive write
//	APPEND <path> <text...>  append (the report-up channel)
//	RM <path>                remove
//	CALL <service>           invoke a service with a nil argument
//	OPEN <endpoint>          open a message endpoint
//	SEND <endpoint> <text>   send a message
//	RECV <endpoint>          receive (response: OK <from> <class> <quoted>)
//	JOURNAL <text...>        append to the system journal
//	STATS                    one-line telemetry summary
//	TRACE [n]                recent decision traces: "OK <k>" then k lines
//	EXPLAIN <path> <modes>   provenance of a decision for the connected
//	                         principal: "OK <k>" then the k-line verdict tree
//	EPOCHS [n]               epoch-transition journal, newest first:
//	                         "OK <k>" then k lines
//	CHECK <path> <modes>     mediated access check for the connected
//	                         principal: "OK allowed" or "ERR denied: ..."
//	WHOAMI                   current principal and class
//	QUIT                     close the connection
//
// Protocol version 2 adds replication (BARRIER and REPLICAS require a
// prior "HELLO 2", SUBSCRIBE a prior "HELLO 6"; HELLO itself is version
// 1 so old servers answer it with a clean unknown-command error instead
// of a hang):
//
//	HELLO <n>                negotiate: "OK proto <min(n, server)>", or a
//	                         clean ERR when n is below the server's minimum
//	SUBSCRIBE 0              become a replica (administrate on "/" required):
//	                         "OK <peer>", "SNAP-SECRET <base64>", then one
//	                         epoch message per epoch, snapshot first: the
//	                         frames "SNAP-HEAD <json>", "SNAP <fields>"...,
//	                         "SNAP-END", each at most 1 MiB (see
//	                         names.EncodeEpoch), with "PING <v>" lines
//	                         between messages; the client answers each
//	                         message and each PING with "ACK <version>"
//	BARRIER <v> [timeoutms]  block until every connected replica acked
//	                         epoch >= v (administrate on "/" required)
//	REPLICAS                 per-peer replication status: "OK <k>" then k lines
//
// Pipelining: a client may send any number of requests without waiting
// for their replies. Replies come back in request order. The server
// buffers them and writes them out when it has no more complete request
// lines buffered, so a burst of pipelined requests is answered with one
// write and a single request in flight with one write per reply. BARRIER
// writes out the replies before it waits for the fleet.
package remote

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

	"secext/internal/acl"
	"secext/internal/core"
	"secext/internal/fsys"
	"secext/internal/names"
	"secext/internal/replica"
	"secext/internal/services/netsvc"
	"secext/internal/subject"
)

// statsLine renders the one-line STATS summary of a telemetry snapshot.
func statsLine(sys *core.System) string {
	s := sys.Telemetry().Snapshot()
	allowed, denied := s.Mediated()
	return fmt.Sprintf(
		"mode=%s mediations=%d allowed=%d denied=%d cache_hits=%d cache_misses=%d admissions=%d traces=%d",
		s.Mode, allowed+denied, allowed, denied,
		s.Cache.Hits, s.Cache.Misses,
		s.Admissions.Allowed+s.Admissions.Denied, s.TracesSampled)
}

// Server serves the protocol over a listener.
type Server struct {
	sys *core.System

	// PingInterval paces the keepalive PINGs on replication streams
	// (liveness for the replicas' staleness deadline). Set before
	// Serve; zero means 500ms.
	PingInterval time.Duration

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
	pub    *replica.Publisher
}

// NewServer wraps a system. The system is expected to have the standard
// world services mounted (/svc/fs, /svc/net, /svc/log).
func NewServer(sys *core.System) *Server {
	return &Server{sys: sys, conns: make(map[net.Conn]bool)}
}

// SetPublisher enables the replication commands (SUBSCRIBE, BARRIER,
// REPLICAS). Without one they answer with a clean "not enabled" error.
func (s *Server) SetPublisher(pub *replica.Publisher) {
	s.mu.Lock()
	s.pub = pub
	s.mu.Unlock()
}

func (s *Server) publisher() *replica.Publisher {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pub
}

func (s *Server) pingEvery() time.Duration {
	if s.PingInterval > 0 {
		return s.PingInterval
	}
	return 500 * time.Millisecond
}

// Serve accepts connections until the listener is closed. Each
// connection is handled on its own goroutine.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Close terminates every active connection; the caller closes the
// listener itself.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
}

func (s *Server) drop(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// maxLine bounds a request line. Requests are short and the only long
// lines on the wire (snapshots and deltas) travel from the server, so a
// longer line is refused with "ERR line too long" and the connection
// closed.
const maxLine = 1 << 20

// session is one authenticated connection.
type session struct {
	srv *Server
	ctx *subject.Context
	// out buffers replies; Read writes them out. Once the session is
	// hijacked, the stream's writer goroutine owns it.
	out  *bufio.Writer
	conn net.Conn
	sc   *bufio.Scanner
	// proto is the negotiated protocol version: 1 until the client
	// sends HELLO (pre-replication clients never do).
	proto int
	// hijacked marks that SUBSCRIBE converted the connection into a
	// replication stream; when the stream ends the connection dies.
	hijacked bool
}

func (s *Server) handle(conn net.Conn) {
	defer s.drop(conn)
	sess := &session{srv: s, out: bufio.NewWriter(conn), conn: conn, proto: 1}
	// Deferred after drop, so it runs first: replies to the last
	// requests (QUIT, EOF after a half-close, a read error) are written
	// before the connection closes.
	defer sess.out.Flush()
	sc := bufio.NewScanner(sess)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	sess.sc = sc
	sess.reply("OK secext ready")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "QUIT") {
			sess.reply("OK bye")
			return
		}
		sess.dispatch(line)
		if sess.hijacked {
			return
		}
	}
	if sc.Err() == bufio.ErrTooLong {
		sess.reply("ERR line too long")
	}
}

// Read is the scanner's source. The scanner reads only once it has
// used up every complete line it holds, which is when the session would
// otherwise block, so the buffered replies are written out first: a
// pipelined burst costs one write. A failed write ends the session.
func (s *session) Read(p []byte) (int, error) {
	if !s.hijacked {
		if err := s.out.Flush(); err != nil {
			return 0, err
		}
	}
	return s.conn.Read(p)
}

// reply appends one reply line to the session's output buffer. A reply
// with no arguments is a constant line and is copied without fmt.
func (s *session) reply(format string, args ...any) {
	if len(args) == 0 {
		s.out.WriteString(format)
		s.out.WriteByte('\n')
		return
	}
	fmt.Fprintf(s.out, format+"\n", args...)
}

// fail replies with err: "ERR denied: <text>" for a denial, "ERR <text>"
// otherwise. A check's own DeniedError is written field by field.
func (s *session) fail(err error) {
	if de, ok := err.(*names.DeniedError); ok {
		s.out.WriteString("ERR denied: ")
		de.WriteText(s.out)
		s.out.WriteByte('\n')
		return
	}
	if core.IsDenied(err) {
		s.reply("ERR denied: %v", err)
		return
	}
	s.reply("ERR %v", err)
}

// need reports whether the session is authenticated, complaining if
// not.
func (s *session) need() bool {
	if s.ctx == nil {
		s.reply("ERR authenticate first (AUTH <token>)")
		return false
	}
	return true
}

// appendFields appends the fields of s, split as strings.Fields splits
// them, to dst. dispatch hands it a stack array so that a request line
// of up to four words is split without allocating.
func appendFields(dst []string, s string) []string {
	for {
		s = strings.TrimLeftFunc(s, unicode.IsSpace)
		if s == "" {
			return dst
		}
		i := strings.IndexFunc(s, unicode.IsSpace)
		if i < 0 {
			return append(dst, s)
		}
		dst, s = append(dst, s[:i]), s[i:]
	}
}

func (s *session) dispatch(line string) {
	var buf [4]string
	fields := appendFields(buf[:0], line)
	cmd := strings.ToUpper(fields[0])
	args := fields[1:]
	switch cmd {
	case "AUTH":
		if len(args) != 1 {
			s.reply("ERR usage: AUTH <token>")
			return
		}
		ctx, err := s.srv.sys.NewContextFromToken(args[0])
		if err != nil {
			s.reply("ERR authentication failed")
			return
		}
		s.ctx = ctx
		s.reply("OK %s %s", ctx.SubjectName(), ctx.Class())
	case "WHOAMI":
		if s.need() {
			s.reply("OK %s %s", s.ctx.SubjectName(), s.ctx.Class())
		}
	case "LS":
		if len(args) != 1 {
			s.reply("ERR usage: LS <path>")
			return
		}
		if !s.need() {
			return
		}
		entries, err := s.srv.sys.List(s.ctx, args[0])
		if err != nil {
			s.fail(err)
			return
		}
		s.reply("OK %s", strings.Join(entries, " "))
	case "CREATE", "READ", "RM":
		if len(args) != 1 {
			s.reply("ERR usage: %s <path>", cmd)
			return
		}
		if !s.need() {
			return
		}
		svc := map[string]string{"CREATE": "create", "READ": "read", "RM": "remove"}[cmd]
		out, err := s.srv.sys.Call(s.ctx, "/svc/fs/"+svc, fsys.Request{Path: args[0]})
		if err != nil {
			s.fail(err)
			return
		}
		if b, ok := out.([]byte); ok {
			s.reply("OK %q", b)
			return
		}
		s.reply("OK")
	case "WRITE", "APPEND":
		if len(args) < 2 {
			s.reply("ERR usage: %s <path> <text>", cmd)
			return
		}
		if !s.need() {
			return
		}
		req := fsys.Request{Path: args[0], Data: []byte(strings.Join(args[1:], " "))}
		if _, err := s.srv.sys.Call(s.ctx, "/svc/fs/"+strings.ToLower(cmd), req); err != nil {
			s.fail(err)
			return
		}
		s.reply("OK")
	case "CALL":
		if len(args) != 1 {
			s.reply("ERR usage: CALL <service>")
			return
		}
		if !s.need() {
			return
		}
		out, err := s.srv.sys.Call(s.ctx, args[0], nil)
		if err != nil {
			s.fail(err)
			return
		}
		s.reply("OK %v", out)
	case "OPEN":
		if len(args) != 1 {
			s.reply("ERR usage: OPEN <endpoint>")
			return
		}
		if !s.need() {
			return
		}
		if _, err := s.srv.sys.Call(s.ctx, "/svc/net/open", netsvc.OpenRequest{Name: args[0]}); err != nil {
			s.fail(err)
			return
		}
		s.reply("OK")
	case "SEND":
		if len(args) < 2 {
			s.reply("ERR usage: SEND <endpoint> <text>")
			return
		}
		if !s.need() {
			return
		}
		req := netsvc.SendRequest{Name: args[0], Data: []byte(strings.Join(args[1:], " "))}
		if _, err := s.srv.sys.Call(s.ctx, "/svc/net/send", req); err != nil {
			s.fail(err)
			return
		}
		s.reply("OK")
	case "RECV":
		if len(args) != 1 {
			s.reply("ERR usage: RECV <endpoint>")
			return
		}
		if !s.need() {
			return
		}
		out, err := s.srv.sys.Call(s.ctx, "/svc/net/recv", netsvc.RecvRequest{Name: args[0]})
		if err != nil {
			s.fail(err)
			return
		}
		m := out.(netsvc.Message)
		s.reply("OK %s %s %q", m.From, m.FromClass, m.Data)
	case "JOURNAL":
		if len(args) < 1 {
			s.reply("ERR usage: JOURNAL <text>")
			return
		}
		if !s.need() {
			return
		}
		if _, err := s.srv.sys.Call(s.ctx, "/svc/log/append", strings.Join(args, " ")); err != nil {
			s.fail(err)
			return
		}
		s.reply("OK")
	case "STATS":
		if len(args) != 0 {
			s.reply("ERR usage: STATS")
			return
		}
		if !s.need() {
			return
		}
		if s.srv.sys.Telemetry() == nil {
			s.reply("ERR telemetry disabled")
			return
		}
		s.reply("OK %s", statsLine(s.srv.sys))
	case "TRACE":
		if len(args) > 1 {
			s.reply("ERR usage: TRACE [n]")
			return
		}
		if !s.need() {
			return
		}
		if s.srv.sys.Telemetry() == nil {
			s.reply("ERR telemetry disabled")
			return
		}
		n := 10
		if len(args) == 1 {
			parsed, err := strconv.Atoi(args[0])
			if err != nil || parsed < 1 {
				s.reply("ERR usage: TRACE [n]")
				return
			}
			n = parsed
		}
		traces := s.srv.sys.Telemetry().Recent(n, false)
		s.reply("OK %d", len(traces))
		for _, tr := range traces {
			s.reply("%s", tr.String())
		}
	case "EXPLAIN":
		if len(args) != 2 {
			s.reply("ERR usage: EXPLAIN <path> <modes>")
			return
		}
		if !s.need() {
			return
		}
		// The connection's own principal is the explained subject: a
		// remote caller may interrogate its own verdicts, not forge
		// questions on behalf of others.
		ex, err := s.srv.sys.Explain(s.ctx.SubjectName(), args[0], args[1])
		if err != nil {
			s.fail(err)
			return
		}
		lines := strings.Split(strings.TrimRight(ex.String(), "\n"), "\n")
		s.reply("OK %d", len(lines))
		for _, l := range lines {
			s.reply("%s", l)
		}
	case "EPOCHS":
		if len(args) > 1 {
			s.reply("ERR usage: EPOCHS [n]")
			return
		}
		if !s.need() {
			return
		}
		if s.srv.sys.Telemetry() == nil {
			s.reply("ERR telemetry disabled")
			return
		}
		n := 10
		if len(args) == 1 {
			parsed, err := strconv.Atoi(args[0])
			if err != nil || parsed < 1 {
				s.reply("ERR usage: EPOCHS [n]")
				return
			}
			n = parsed
		}
		recs := s.srv.sys.Telemetry().EpochJournal(n)
		s.reply("OK %d", len(recs))
		for _, r := range recs {
			s.reply("%s", r.String())
		}
	case "CHECK":
		if len(args) != 2 {
			s.reply("ERR usage: CHECK <path> <modes>")
			return
		}
		if !s.need() {
			return
		}
		modes, err := acl.ParseMode(args[1])
		if err != nil {
			s.fail(err)
			return
		}
		if _, err := s.srv.sys.CheckData(s.ctx, args[0], modes); err != nil {
			s.fail(err)
			return
		}
		s.reply("OK allowed")
	case "HELLO":
		if len(args) != 1 {
			s.reply("ERR usage: HELLO <version>")
			return
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 1 {
			s.reply("ERR usage: HELLO <version>")
			return
		}
		if n < replica.MinProto {
			s.reply("ERR protocol version %d no longer supported (minimum %d)", n, replica.MinProto)
			return
		}
		if n > replica.ProtoVersion {
			n = replica.ProtoVersion
		}
		s.proto = n
		s.reply("OK proto %d", n)
	case "SUBSCRIBE":
		if len(args) != 1 {
			s.reply("ERR usage: SUBSCRIBE 0")
			return
		}
		if s.proto < replica.SubscribeProto {
			s.reply("ERR SUBSCRIBE requires protocol >= %d (send HELLO %d first)", replica.SubscribeProto, replica.SubscribeProto)
			return
		}
		if !s.need() {
			return
		}
		pub := s.srv.publisher()
		if pub == nil {
			s.reply("ERR replication not enabled on this server")
			return
		}
		// Subscribing hands out the entire policy (tree, ACLs, token
		// secret): only a principal holding administrate on the root
		// may become a replica.
		if _, err := s.srv.sys.CheckData(s.ctx, "/", acl.Administrate); err != nil {
			s.fail(err)
			return
		}
		peer, snap, err := pub.Subscribe(s.ctx.SubjectName())
		if err != nil {
			s.fail(err)
			return
		}
		s.reply("OK %s", peer.Name())
		// A subscriber that goes away mid-snapshot, or a snapshot that
		// fails to encode, ends the session at once: the peer stops
		// gating barriers and the replica sees a cut stream.
		if _, err := snap.WriteTo(s.out); err != nil || s.out.Flush() != nil {
			pub.Remove(peer)
			s.hijacked = true
			return
		}
		s.stream(pub, peer)
	case "BARRIER":
		if len(args) < 1 || len(args) > 2 {
			s.reply("ERR usage: BARRIER <version> [timeout-ms]")
			return
		}
		if s.proto < 2 {
			s.reply("ERR BARRIER requires protocol >= 2 (send HELLO 2 first)")
			return
		}
		if !s.need() {
			return
		}
		pub := s.srv.publisher()
		if pub == nil {
			s.reply("ERR replication not enabled on this server")
			return
		}
		if _, err := s.srv.sys.CheckData(s.ctx, "/", acl.Administrate); err != nil {
			s.fail(err)
			return
		}
		v, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			s.reply("ERR usage: BARRIER <version> [timeout-ms]")
			return
		}
		timeout := 5 * time.Second
		if len(args) == 2 {
			ms, err := strconv.Atoi(args[1])
			if err != nil || ms < 1 {
				s.reply("ERR usage: BARRIER <version> [timeout-ms]")
				return
			}
			timeout = time.Duration(ms) * time.Millisecond
		}
		// A failed write stays in s.out; the next Read returns it.
		s.out.Flush()
		if err := pub.Barrier(v, timeout); err != nil {
			s.fail(err)
			return
		}
		s.reply("OK barrier v%d", v)
	case "REPLICAS":
		if len(args) != 0 {
			s.reply("ERR usage: REPLICAS")
			return
		}
		if !s.need() {
			return
		}
		pub := s.srv.publisher()
		if pub == nil {
			s.reply("ERR replication not enabled on this server")
			return
		}
		st := pub.Stats()
		s.reply("OK %d", len(st.Peers))
		for _, peer := range st.Peers {
			s.reply("peer=%s acked=v%d lag=%d deltas=%d delta_bytes=%d snapshot_bytes=%d",
				peer.Name, peer.Acked, peer.Lag, peer.Deltas, peer.DeltaBytes, peer.SnapshotBytes)
		}
	default:
		s.reply("ERR unknown command %q", cmd)
	}
}

// stream converts the connection into a replication stream: a writer
// goroutine drains the peer's delta queue (interleaving keepalive
// PINGs) and owns s.out from here on, writing each line out at once,
// while this goroutine keeps reading the client's ACK lines
// and feeding them to the publisher — where they satisfy revocation
// barriers. Runs until either side hangs up or the publisher drops the
// peer (queue overflow, shutdown).
func (s *session) stream(pub *replica.Publisher, peer *replica.Peer) {
	s.hijacked = true
	defer pub.Remove(peer)
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(s.srv.pingEvery())
		defer ticker.Stop()
		for {
			select {
			case msg, ok := <-peer.Ch():
				if !ok {
					// Dropped by the publisher: hang up so the replica
					// notices and re-bootstraps (or fails closed).
					s.conn.Close()
					return
				}
				s.out.Write(msg.Payload)
			case <-ticker.C:
				s.reply("PING %d", s.srv.sys.Names().Version())
			case <-quit:
				return
			}
			if s.out.Flush() != nil {
				s.conn.Close()
				return
			}
		}
	}()
	for s.sc.Scan() {
		line := strings.TrimSpace(s.sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if strings.EqualFold(fields[0], "ACK") && len(fields) == 2 {
			if v, err := strconv.ParseUint(fields[1], 10, 64); err == nil {
				pub.Ack(peer, v)
			}
			continue
		}
		if strings.EqualFold(fields[0], "QUIT") {
			break
		}
		// Anything else on a replication stream is ignored; the
		// connection is single-purpose now.
	}
	close(quit)
	<-done
}
