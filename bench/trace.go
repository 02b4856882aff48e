package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run prices each layer from outside the program: spans
// around the benchmark's own calls into each module, plus a timing
// wrapper around the connections remote.Server reads and writes.

// spanRec is one recorded span; times are nanoseconds since the run
// started.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its identifier, 0 on a nil tracer.
func (t *tracer) add(parent int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// begin records a span that starts now and ends when finish is called.
func (t *tracer) begin(parent int64, name string) int64 {
	now := time.Now()
	return t.add(parent, name, now, now)
}

func (t *tracer) finish(id int64) {
	t.mu.Lock()
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints, per span name, the count, the median duration
// and the median self time: the span's duration minus the part of it
// its child spans cover.
func (t *tracer) printSelfTimes(out io.Writer) {
	kids := make(map[int64][][2]int64)
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
	}
	durs := make(map[string][]time.Duration)
	selfs := make(map[string][]time.Duration)
	for _, s := range t.spans {
		durs[s.Name] = append(durs[s.Name], time.Duration(s.End-s.Start))
		selfs[s.Name] = append(selfs[s.Name], time.Duration(s.End-s.Start-covered(kids[s.ID])))
	}
	names := make([]string, 0, len(durs))
	for n := range durs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-28s %9s %14s %14s\n", "span", "count", "p50 dur us", "p50 self us")
	for _, n := range names {
		fmt.Fprintf(out, "%-28s %9d %14.3f %14.3f\n", n, len(durs[n]), us(pct(durs[n], 50)), us(pct(selfs[n], 50)))
	}
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, x := range iv {
		switch {
		case i == 0 || x[0] >= end:
			total, end = total+x[1]-x[0], x[1]
		case x[1] > end:
			total, end = total+x[1]-end, x[1]
		}
	}
	return total
}

// tap wraps a listener so that every accepted connection reports when
// each request line arrived and when its reply was written, and how many
// read and write calls it made.
type tap struct {
	spansOn, countOn atomic.Bool
	mu               sync.Mutex
	conns            []*tapConn
}

type tapListener struct {
	net.Listener
	t *tap
}

func (t *tap) wrap(l net.Listener) net.Listener { return tapListener{l, t} }

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c, t: l.t, port: c.RemoteAddr().(*net.TCPAddr).Port}
	l.t.mu.Lock()
	l.t.conns = append(l.t.conns, tc)
	l.t.mu.Unlock()
	return tc, nil
}

// serverSpan is one request as the server saw it: from the read that
// delivered its newline until the next write returned.
type serverSpan struct {
	seq        int
	start, end time.Time
}

type tapConn struct {
	net.Conn
	t    *tap
	port int

	mu      sync.Mutex
	seq     int // request lines read so far
	open    bool
	openSeq int
	openAt  time.Time
	// reads, writes and lines are counted while countOn is set.
	reads, writes, lines int
	spans                []serverSpan
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		now := time.Now()
		k := bytes.Count(b[:n], []byte{'\n'})
		c.mu.Lock()
		if c.t.countOn.Load() {
			c.reads++
			c.lines += k
		}
		if k > 0 && !c.open {
			c.open, c.openSeq, c.openAt = true, c.seq, now
		}
		c.seq += k
		c.mu.Unlock()
	}
	return n, err
}

func (c *tapConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	now := time.Now()
	c.mu.Lock()
	if c.t.countOn.Load() {
		c.writes++
	}
	if c.open {
		if c.t.spansOn.Load() {
			c.spans = append(c.spans, serverSpan{c.openSeq, c.openAt, now})
		}
		c.open = false
	}
	c.mu.Unlock()
	return n, err
}

// conn returns the tapped connection whose peer is the given local
// port of a client.
func (t *tap) conn(port int) *tapConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.conns {
		if c.port == port {
			return c
		}
	}
	return nil
}

// counts sums the read, write and request-line counts of the
// connections from the given client ports.
func (t *tap) counts(clients []*client) (reads, writes, lines int) {
	for _, cl := range clients {
		if c := t.conn(cl.port); c != nil {
			c.mu.Lock()
			reads, writes, lines = reads+c.reads, writes+c.writes, lines+c.lines
			c.mu.Unlock()
		}
	}
	return reads, writes, lines
}

// spanSample is the share of a traced window's requests kept as
// spans: one in spanSample. The statistics use every request; the
// sample bounds the span file and the memory holding it.
const spanSample = 64

// link pairs each client span with the server span of the same request
// line and returns, per paired request, the server duration and the
// client-side remainder (round trip minus server time). Sampled pairs
// are recorded as spans: the client span under parent, the server span
// beneath it.
func link(tr *tracer, parent int64, name string, cl *client, spans []clientSpan, tp *tap, serverName string) (server, rest []time.Duration) {
	var byseq map[int]serverSpan
	if c := tp.conn(cl.port); c != nil {
		c.mu.Lock()
		byseq = make(map[int]serverSpan, len(c.spans))
		for _, s := range c.spans {
			byseq[s.seq] = s
		}
		c.mu.Unlock()
	}
	for i, s := range spans {
		ss, ok := byseq[s.seq]
		if !ok {
			continue
		}
		server = append(server, ss.end.Sub(ss.start))
		rest = append(rest, s.end.Sub(s.start)-ss.end.Sub(ss.start))
		if i%spanSample == 0 {
			id := tr.add(parent, name, s.start, s.end)
			tr.add(id, serverName, ss.start, ss.end)
		}
	}
	return server, rest
}
