package replica_test

// Bootstrap tests for the streamed snapshot: a replica bootstrapped at
// bulk-load scale answers exactly as its primary does, a stalled
// primary cannot hang Connect, every malformed stream fails Connect
// cleanly, and a subscriber that leaves mid-snapshot stops gating the
// fleet.

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"secext"
	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/load"
	"secext/internal/names"
	"secext/internal/replica"
)

// TestBootstrapMatchesPrimaryAtScale bootstraps a replica from the
// stream at bulk-load scale (50k nodes, 4k principals, 125 groups) and
// requires the replica's tree to equal the primary's node for node —
// path, kind, class label, canonical ACL and multilevel flag — and its
// verdicts, denial text included, to equal the primary's on a sample
// of queries.
func TestBootstrapMatchesPrimaryAtScale(t *testing.T) {
	p := startPrimary(t, 50*time.Millisecond)
	cfg := load.Defaults()
	cfg.Nodes, cfg.Principals, cfg.Groups = 50_000, 4_000, 125
	cfg.ACLPool = cfg.Nodes / 64
	plan := load.NewPlan(cfg)
	if _, err := load.Populate(p.w.Sys, plan); err != nil {
		t.Fatal(err)
	}
	r := p.connect(t, 10*time.Second)
	pe, re := p.w.Sys.Names().Current(), r.System().Names().Current()

	type row struct {
		path, kind, class, acl string
		ml                     bool
	}
	walk := func(ep *names.Epoch) []row {
		var out []row
		ep.Walk(func(path string, n *names.Node) {
			label, err := ep.Lattice().Format(n.Class())
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			out = append(out, row{path, n.Kind().String(), label, n.ACL().String(), n.Multilevel()})
		})
		return out
	}
	prim, repl := walk(pe), walk(re)
	if len(prim) != len(repl) {
		t.Fatalf("replica has %d nodes, primary %d", len(repl), len(prim))
	}
	for i := range prim {
		if prim[i] != repl[i] {
			t.Fatalf("node %d: primary %+v, replica %+v", i, prim[i], repl[i])
		}
	}
	if !re.Compiled() {
		t.Fatal("replica epoch is not compiled")
	}

	rng := rand.New(rand.NewSource(1))
	modes := []acl.Mode{acl.Read, acl.Write, acl.List, acl.Administrate}
	denied := 0
	for i := 0; i < 4000; i++ {
		name := load.PrincipalName(rng.Intn(plan.Principals))
		path := prim[rng.Intn(len(prim))].path
		mode := modes[rng.Intn(len(modes))]
		pctx, err := p.w.Sys.NewContext(name)
		if err != nil {
			t.Fatal(err)
		}
		rctx, err := r.System().NewContext(name)
		if err != nil {
			t.Fatal(err)
		}
		_, perr := p.w.Sys.Names().CheckAccessIn(pe, pctx, pctx.Class(), path, mode)
		_, rerr := r.System().Names().CheckAccessIn(re, rctx, rctx.Class(), path, mode)
		if fmt.Sprint(perr) != fmt.Sprint(rerr) {
			t.Fatalf("%s %s on %s: primary %v, replica %v", name, mode, path, perr, rerr)
		}
		if perr != nil {
			denied++
		}
	}
	if denied == 0 || denied == 4000 {
		t.Fatalf("%d of 4000 sampled queries denied: the sample does not exercise both verdicts", denied)
	}
}

// snapshotServer serves one subscription: the handshake, then write.
func snapshotServer(t *testing.T, write func(conn net.Conn)) string {
	return fakePrimary(t, func(conn net.Conn, sc *bufio.Scanner) {
		handshake(conn, sc)
		write(conn)
		for sc.Scan() { // until the replica hangs up
		}
	})
}

// liveWire returns a primary's current snapshot and its encoding split
// into lines, SNAP-SECRET first, newlines kept.
func liveWire(t *testing.T, p *primary) (*names.EpochWire, []string) {
	t.Helper()
	w, err := p.w.Sys.Names().Current().WireSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return w, encodeLines(t, w)
}

func encodeLines(t *testing.T, w *names.EpochWire) []string {
	t.Helper()
	lines := []string{"SNAP-SECRET " + replica.EncodeSecret([]byte(strings.Repeat("s", 32))) + "\n"}
	if err := names.EncodeEpoch(w, func(f []byte) error {
		lines = append(lines, string(f))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestConnectStalledPrimary: a primary that stops halfway through the
// snapshot, without closing, fails Connect after about StaleAfter, and
// Connect closes its end.
func TestConnectStalledPrimary(t *testing.T) {
	p := startPrimary(t, time.Hour)
	_, lines := liveWire(t, p)
	hungUp := make(chan time.Time, 1)
	addr := fakePrimary(t, func(conn net.Conn, sc *bufio.Scanner) {
		handshake(conn, sc)
		for _, l := range lines[:len(lines)/2] {
			conn.Write([]byte(l))
		}
		for sc.Scan() {
		}
		hungUp <- time.Now()
	})
	const stale = 200 * time.Millisecond
	start := time.Now()
	r, err := replica.Connect(replica.Options{Addr: addr, Token: "x", StaleAfter: stale})
	took := time.Since(start)
	if err == nil {
		r.Close()
		t.Fatal("Connect succeeded against a stalled primary")
	}
	if took < stale || took > 10*stale {
		t.Fatalf("Connect failed after %s, want about %s: %v", took, stale, err)
	}
	select {
	case <-hungUp:
	case <-time.After(5 * time.Second):
		t.Fatal("Connect returned without closing the connection")
	}
}

// TestSnapshotStreamFaults: each damaged stream fails Connect with an
// error, returns no replica, and leaves no goroutine behind.
func TestSnapshotStreamFaults(t *testing.T) {
	p := startPrimary(t, time.Hour)
	good, _ := liveWire(t, p)
	// A leaf row directly followed by a row, and a pair of adjacent
	// sibling leaves, for the structural cases.
	leafThenRow, siblings := -1, -1
	for i := 1; i+1 < len(good.Rows); i++ {
		leaf := names.Kind(good.Rows[i].Kind).Leaf()
		if leaf && leafThenRow < 0 {
			leafThenRow = i
		}
		if leaf && good.Rows[i+1].Parent == good.Rows[i].Parent && siblings < 0 {
			siblings = i
		}
	}
	if leafThenRow < 0 || siblings < 0 {
		t.Fatal("primary tree lacks the shapes the fault cases need")
	}
	mutated := func(edit func(w *names.EpochWire)) []string {
		w, _ := liveWire(t, p)
		edit(w)
		return encodeLines(t, w)
	}
	last := len(good.Rows) - 1
	cases := []struct {
		name  string
		lines []string
		want  string
	}{
		{"truncated stream", encodeLines(t, good)[:3], "closed while reading snapshot"},
		// The cut may fall inside a number or an escape, so the error may
		// come from the decoder or from the closed connection.
		{"cut mid-frame", func() []string {
			l := encodeLines(t, good)
			return append(l[:2], l[2][:len(l[2])/2])
		}(), "snapshot"},
		{"corrupt row", func() []string {
			l := encodeLines(t, good)
			end := len(l) - 2 // the last data frame: its final field is a multilevel flag
			l[end] = strings.TrimSuffix(l[end], "\n") + "x\n"
			return l
		}(), "not in [0, 1]"},
		{"forward parent", mutated(func(w *names.EpochWire) { w.Rows[last-1].Parent = int32(last) }), "not an open ancestor"},
		{"parent out of range", mutated(func(w *names.EpochWire) { w.Rows[last].Parent = 1 << 30 }), "not an open ancestor"},
		{"negative parent", mutated(func(w *names.EpochWire) { w.Rows[last].Parent = -1 }), "the root is the only anchor"},
		{"leaf parent", mutated(func(w *names.EpochWire) { w.Rows[leafThenRow+1].Parent = int32(leafThenRow) }), "is a leaf"},
		{"unsorted siblings", mutated(func(w *names.EpochWire) {
			w.Rows[siblings].Name, w.Rows[siblings+1].Name = w.Rows[siblings+1].Name, w.Rows[siblings].Name
		}), "sibling order"},
		{"duplicate siblings", mutated(func(w *names.EpochWire) { w.Rows[siblings+1].Name = w.Rows[siblings].Name }), "sibling order"},
		{"second root", mutated(func(w *names.EpochWire) { w.Rows[last].Kind = uint8(names.KindRoot) }), "second root"},
		{"bad name", mutated(func(w *names.EpochWire) { w.Rows[last].Name = ".." }), "component"},
		{"ACL index out of range", mutated(func(w *names.EpochWire) { w.Rows[last].ACL = uint32(len(w.ACLs)) }), "ACL index"},
		{"class index out of range", mutated(func(w *names.EpochWire) { w.Rows[last].Class = uint32(len(w.Classes) + 3) }), "class index"},
		{"header announces more rows", func() []string {
			l := encodeLines(t, good)
			l[1] = strings.Replace(l[1], fmt.Sprintf(`"rows":%d`, len(good.Rows)), fmt.Sprintf(`"rows":%d`, len(good.Rows)+1), 1)
			return l
		}(), "expected a SNAP frame"},
		{"header announces fewer rows", func() []string {
			l := encodeLines(t, good)
			l[1] = strings.Replace(l[1], fmt.Sprintf(`"rows":%d`, len(good.Rows)), fmt.Sprintf(`"rows":%d`, len(good.Rows)-1), 1)
			return l
		}(), "more fields than its header"},
		{"frame over 1 MiB", func() []string {
			l := encodeLines(t, good)
			return append(l[:2], "SNAP "+strings.Repeat("a", names.MaxFrame)+"\n")
		}(), "token too long"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			addr := snapshotServer(t, func(conn net.Conn) {
				for _, l := range tc.lines {
					conn.Write([]byte(l))
				}
				// Half-close: the replica sees the stream end, the fake
				// primary still sees the replica hang up.
				conn.(*net.TCPConn).CloseWrite()
			})
			r, err := replica.Connect(replica.Options{Addr: addr, Token: "x", StaleAfter: 5 * time.Second})
			if err == nil {
				r.Close()
				t.Fatal("Connect succeeded on a damaged snapshot")
			}
			if r != nil {
				t.Fatal("Connect returned a replica with its error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want it to mention %q", err, tc.want)
			}
			waitFor(t, 5*time.Second, "goroutines to return to the baseline", func() bool {
				return runtime.NumGoroutine() <= before
			})
		})
	}
}

// TestSubscriberLeavesMidSnapshot: a subscriber that hangs up after the
// first frames disappears from the fleet, and a barrier does not wait
// for it.
func TestSubscriberLeavesMidSnapshot(t *testing.T) {
	p := startPrimary(t, time.Hour)
	cfg := load.Defaults()
	cfg.Nodes, cfg.Principals, cfg.Groups = 20_000, 200, 8
	if _, err := load.Populate(p.w.Sys, load.NewPlan(cfg)); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(conn)
	fmt.Fprintf(conn, "HELLO 6\nAUTH %s\nSUBSCRIBE 0\n", p.replicatorTok)
	for i := 0; i < 6; i++ { // greeting, three OKs, SNAP-SECRET, SNAP-HEAD
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if i == 5 && !strings.HasPrefix(line, "SNAP-HEAD ") {
			t.Fatalf("line %d = %.40q, want the snapshot header", i, line)
		}
	}
	if len(p.pub.Peers()) != 1 {
		t.Fatalf("%d peers mid-snapshot, want 1", len(p.pub.Peers()))
	}
	conn.(*net.TCPConn).SetLinger(0) // reset: the primary's next write fails
	conn.Close()
	waitFor(t, 5*time.Second, "the departed subscriber to leave the fleet", func() bool {
		return len(p.pub.Peers()) == 0
	})
	v, err := p.w.Sys.Names().Apply(nil, lattice.Class{}, names.SetACL("/fs/f", secext.NewACL(secext.AllowEveryone(secext.List))))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.pub.Barrier(v, 5*time.Second); err != nil || time.Since(start) > time.Second {
		t.Fatalf("barrier after the subscriber left: %v after %s", err, time.Since(start))
	}
	if peers := p.pub.Stats().Peers; len(peers) != 0 {
		t.Fatalf("stats still list peers: %+v", peers)
	}
}

// TestLargeDeltaReachesReplica: a delta larger than a protocol line (a
// 20k-node bind, several MiB) travels as several frames, each within
// the line bound, and the replica applies it.
func TestLargeDeltaReachesReplica(t *testing.T) {
	p := startPrimary(t, time.Hour)
	r := p.connect(t, time.Hour)
	bottom, err := p.w.Sys.Lattice().Bottom()
	if err != nil {
		t.Fatal(err)
	}
	open := secext.NewACL(secext.AllowEveryone(secext.Read))
	const n = 20_000
	specs := []names.SubtreeSpec{{Path: "big", Kind: names.KindDirectory, ACL: open, Class: bottom}}
	for i := 0; i < n; i++ {
		specs = append(specs, names.SubtreeSpec{Path: fmt.Sprintf("big/%s%06d", strings.Repeat("n", 100), i), Kind: names.KindFile, ACL: open, Class: bottom})
	}
	prev := p.w.Sys.Names().Current()
	_, v, err := p.w.Sys.Names().BindSubtreeUnchecked("/", specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.pub.Barrier(v, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	d, err := names.DiffEpochs(prev, p.w.Sys.Names().Current())
	if err != nil {
		t.Fatal(err)
	}
	var frames, size int
	if err := names.EncodeEpoch(d, func(f []byte) error {
		if len(f) > names.MaxFrame {
			t.Fatalf("frame %d of %d bytes exceeds the line bound", frames, len(f))
		}
		frames++
		size += len(f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := p.pub.Stats(); frames < 4 || st.Deltas != 1 || st.DeltaBytes != uint64(size) || size <= 2*names.MaxFrame {
		t.Fatalf("%d deltas of %d bytes; the delta is %d frames of %d bytes, want one delta of several MiB in several frames",
			st.Deltas, st.DeltaBytes, frames, size)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	last := fmt.Sprintf("/big/%s%06d", strings.Repeat("n", 100), n-1)
	if _, err := r.System().Names().Current().Lookup(last); err != nil {
		t.Fatalf("replica lacks %s: %v", last, err)
	}
	if got, want := r.System().Names().Current().Size(), p.w.Sys.Names().Current().Size(); got != want {
		t.Fatalf("replica has %d nodes, primary %d", got, want)
	}
}
