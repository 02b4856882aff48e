package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"time"

	"secext"
	"secext/internal/acl"
	"secext/internal/core"
	"secext/internal/load"
	"secext/internal/remote"
	"secext/internal/replica"
	"secext/internal/telemetry"
)

// workload is one traffic mix over one synthetic population.
type workload struct {
	name string

	nodes, principals, groups int

	// replicas is the number of replica mediators subscribed to the
	// primary; readFromReplica points the load connections at replica 0's
	// own line-protocol server instead of the primary.
	replicas        int
	readFromReplica bool
	// relabel moves every 64th directory to class "local", above the
	// load principals' class.
	relabel bool
	// churn runs the admin edit loop beside the one-in-flight reader:
	// the workload's closed-loop operation is an edit.
	churn bool
	// conns is the number of load connections (principals p0, p1, ...).
	// Pipelined phases use all of them, one-in-flight phases the first.
	conns int
	// gen draws connection subj's request stream.
	gen func(p load.Plan, r *rand.Rand, subj, n int) []request
}

// workloads are the traffic mixes; README.md gives why each exists.
// bulk-load stops at 50k nodes and 4k principals because a replica
// bootstrap replays principals one at a time, quadratic in their
// number (12.6s at 10k), and every run sets up setupRuns times.
var workloads = []workload{
	{name: "check-allow", nodes: 100_000, principals: 10_000, groups: 312, conns: 2, gen: uniformReads},
	{name: "check-deny", nodes: 100_000, principals: 10_000, groups: 312, conns: 2, relabel: true, gen: denyMix},
	{name: "edit-churn", nodes: 20_000, principals: 2_000, groups: 64, conns: 1, replicas: 2, churn: true, gen: zipfReads},
	{name: "bulk-load", nodes: 50_000, principals: 4_000, groups: 125, conns: 2, replicas: 1, readFromReplica: true, gen: zipfReads},
}

func findWorkload(name string) (workload, error) {
	var known []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		known = append(known, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(known, ", "))
}

// plan derives the population from the workload's sizes; the ACL pool
// follows secload's nodes/64 rule.
func (w workload) plan(seed int64) load.Plan {
	cfg := load.Defaults()
	cfg.Nodes, cfg.Principals, cfg.Groups = w.nodes, w.principals, w.groups
	cfg.ACLPool = max(16, w.nodes/64)
	cfg.Seed = seed
	return load.NewPlan(cfg)
}

// requestsPerConn sizes each connection's request table. Connections
// cycle through their table; at 2^17 draws the uniform table of
// check-allow touches ~73k distinct leaves per connection.
const requestsPerConn = 1 << 17

// requests draws every connection's request stream from the seed.
func (w workload) requests(p load.Plan, seed int64) [][]request {
	out := make([][]request, w.conns)
	for c := range out {
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		out[c] = w.gen(p, r, c, requestsPerConn)
	}
	return out
}

// request is one precomputed CHECK with the verdict the plan implies.
type request struct {
	line  string // "CHECK <path> <modes>\n"
	path  string // a slice of line
	modes acl.Mode
	allow bool
}

func newRequest(path, modes string, allow bool) request {
	m, err := acl.ParseMode(modes)
	if err != nil {
		panic(err) // modes are constants of this file
	}
	line := "CHECK " + path + " " + modes + "\n"
	return request{line: line, path: line[6 : 6+len(path)], modes: m, allow: allow}
}

// uniformReads: read on leaves drawn uniformly; the pool grants read to
// everyone, so every request is allowed.
func uniformReads(p load.Plan, r *rand.Rand, _, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = newRequest(p.LeafPath(r.Intn(p.Leaves)), "read", true)
	}
	return out
}

// zipfReads: read on zipf-drawn leaves, ranked by a seeded permutation
// so each seed heats a different set.
func zipfReads(p load.Plan, r *rand.Rand, _, n int) []request {
	pick := zipfOver(r, p.Leaves, p.Zipf)
	out := make([]request, n)
	for i := range out {
		out[i] = newRequest(p.LeafPath(pick()), "read", true)
	}
	return out
}

// zipfOver returns a sampler of 0..n-1 whose popularity ranks are a
// seeded permutation.
func zipfOver(r *rand.Rand, n int, s float64) func() int {
	perm := r.Perm(n)
	if n == 1 {
		return func() int { return perm[0] }
	}
	z := rand.NewZipf(r, s, 1, uint64(n-1))
	return func() int { return perm[z.Uint64()] }
}

// relabelled reports whether directory d is moved to class "local" on
// check-deny: every 64th directory, starting at an offset the seed
// picks.
func relabelled(p load.Plan, d int) bool {
	return d%64 == int(uint64(p.Seed)%uint64(min(64, p.Dirs)))
}

// writeGranted reports whether principal i holds write on leaf l: pool
// ACL k grants write to p_(7k mod P) and to the members of g_(k mod G),
// and principal i is a member of g_(i mod G).
func writeGranted(p load.Plan, i, l int) bool {
	k := l % p.ACLPool
	return (7*k)%p.Principals == i || k%p.Groups == i%p.Groups
}

// denyMix: 60% write on an ordinary leaf (a DAC missing-grant denial
// unless the pool ACL names the subject or its group), 20% read on a
// leaf under a relabelled directory (hidden ancestor), 10% read on a
// relabelled directory (MAC dominance), 10% read on an ordinary leaf
// (allowed). Each class draws its targets by zipf.
func denyMix(p load.Plan, r *rand.Rand, subj, n int) []request {
	var dirs, hidden, plain []int
	for d := 0; d < p.Dirs; d++ {
		for l := d * p.LeavesPerDir; l < (d+1)*p.LeavesPerDir; l++ {
			if relabelled(p, d) {
				hidden = append(hidden, l)
			} else {
				plain = append(plain, l)
			}
		}
		if relabelled(p, d) {
			dirs = append(dirs, d)
		}
	}
	pickDir, pickHidden, pickPlain := zipfOver(r, len(dirs), p.Zipf), zipfOver(r, len(hidden), p.Zipf), zipfOver(r, len(plain), p.Zipf)
	out := make([]request, n)
	for i := range out {
		switch u := r.Intn(10); {
		case u < 6:
			l := plain[pickPlain()]
			out[i] = newRequest(p.LeafPath(l), "write", writeGranted(p, subj, l))
		case u < 8:
			out[i] = newRequest(p.LeafPath(hidden[pickHidden()]), "read", false)
		case u < 9:
			out[i] = newRequest(p.DirPath(dirs[pickDir()]), "read", false)
		default:
			out[i] = newRequest(p.LeafPath(plain[pickPlain()]), "read", true)
		}
	}
	return out
}

// production returns secextd's default world: three trust levels, two
// categories, audit on, telemetry sampled, decision cache and compiled
// epochs on.
func production() secext.WorldOptions {
	return secext.WorldOptions{
		Levels:     []string{"others", "organization", "local"},
		Categories: []string{"dept-1", "dept-2"},
		Telemetry:  secext.TelemetryOptions{Mode: secext.TelemetrySampled},
	}
}

// env is one set-up workload: the primary, its replicas, the servers
// and the load connections.
type env struct {
	plan     load.Plan
	relabel  bool
	world    *secext.World
	pub      *replica.Publisher
	replicas []*replica.Replica
	servers  []*server
	// target is the system the load connections talk to.
	target *core.System
	conns  []*client
	// connect is the total replica bootstrap time.
	connect time.Duration
	ed      *editor
}

// server is a remote.Server on a loopback listener.
type server struct {
	srv  *remote.Server
	l    net.Listener
	done chan struct{}
}

func serve(sys *core.System, pub *replica.Publisher, tp *tap) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if tp != nil {
		l = tp.wrap(l)
	}
	s := &server{srv: remote.NewServer(sys), l: l, done: make(chan struct{})}
	if pub != nil {
		s.srv.SetPublisher(pub)
	}
	go func() {
		defer close(s.done)
		// Serve returns nil once close has marked the server closed;
		// any other error surfaces as failed requests.
		_ = s.srv.Serve(l)
	}()
	return s, nil
}

func (s *server) addr() string { return s.l.Addr().String() }

func (s *server) close() {
	s.srv.Close()
	s.l.Close()
	<-s.done
}

// setup builds one workload environment and returns it with its set-up
// time and the primary's retained heap per node. The two forced GCs
// that bracket the primary's build are excluded from the set-up time.
func setup(w workload, p load.Plan, seed int64, tp *tap) (*env, time.Duration, float64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	world, err := secext.NewWorld(production())
	if err != nil {
		return nil, 0, 0, err
	}
	e := &env{plan: p, relabel: w.relabel, world: world, target: world.Sys}
	sys := world.Sys
	if _, err := load.Populate(sys, p); err != nil {
		return nil, 0, 0, fmt.Errorf("populate: %w", err)
	}
	if w.relabel {
		local, err := sys.Lattice().ParseClass("local")
		if err != nil {
			return nil, 0, 0, err
		}
		for d := 0; d < p.Dirs; d++ {
			if relabelled(p, d) {
				if err := sys.Names().SetClassUnchecked(p.DirPath(d), local); err != nil {
					return nil, 0, 0, fmt.Errorf("relabel: %w", err)
				}
			}
		}
	}
	built := time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	heapPerNode := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(p.TotalNodes)

	start = time.Now()
	if err := e.start(w, seed, tp); err != nil {
		e.close()
		return nil, 0, 0, err
	}
	return e, built + time.Since(start), heapPerNode, nil
}

// start brings up the admin editor and the replication fleet (when the
// workload has replicas), the servers and the load connections.
func (e *env) start(w workload, seed int64, tp *tap) error {
	sys := e.world.Sys
	token := ""
	if w.replicas > 0 {
		// The admin editor serves edit-churn's edit loop and the traced
		// run's edits. Enrolling it before the replicas bootstrap keeps
		// the enrollment out of the delta stream, which a replica applies
		// one member at a time.
		var err error
		if e.ed, err = newEditor(e, seed); err != nil {
			return err
		}
		// The replicator principal: lowest class plus administrate on
		// "/", as secextd -serve-replication sets it up.
		const name = "secext-replicator"
		if _, err := sys.AddPrincipal(name, "others"); err != nil {
			return err
		}
		rootACL, err := sys.Names().ACLOf("/")
		if err != nil {
			return err
		}
		rootACL.Add(acl.Allow(name, acl.Administrate))
		if err := sys.Names().SetACLUnchecked("/", rootACL); err != nil {
			return err
		}
		if token, err = sys.Registry().IssueToken(name); err != nil {
			return err
		}
		e.pub = replica.NewPublisher(sys)
	}
	primaryTap := tp
	if w.readFromReplica {
		primaryTap = nil
	}
	ps, err := serve(sys, e.pub, primaryTap)
	if err != nil {
		return err
	}
	e.servers = append(e.servers, ps)
	t := time.Now()
	for i := 0; i < w.replicas; i++ {
		r, err := replica.Connect(replica.Options{
			Addr: ps.addr(), Token: token,
			Telemetry: telemetry.Options{Mode: telemetry.ModeSampled},
		})
		if err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		e.replicas = append(e.replicas, r)
	}
	e.connect = time.Since(t)
	addr := ps.addr()
	if w.readFromReplica {
		e.target = e.replicas[0].System()
		rs, err := serve(e.target, nil, tp)
		if err != nil {
			return err
		}
		e.servers = append(e.servers, rs)
		addr = rs.addr()
	}
	for c := 0; c < w.conns; c++ {
		tok, err := sys.Registry().IssueToken(load.PrincipalName(c))
		if err != nil {
			return err
		}
		cl, err := dial(addr, tok)
		if err != nil {
			return fmt.Errorf("load connection %d: %w", c, err)
		}
		e.conns = append(e.conns, cl)
	}
	return nil
}

// close stops everything start brought up, readers first.
func (e *env) close() {
	for _, c := range e.conns {
		c.close()
	}
	for i := len(e.servers) - 1; i >= 1; i-- {
		e.servers[i].close()
	}
	if e.pub != nil {
		// Publisher.Close can race the fan-out goroutine still sending
		// a delta (a send on a closed channel). Once every replica has
		// acked the current epoch the fan-out is idle.
		_ = e.pub.Barrier(e.world.Sys.Names().Version(), barrierTimeout)
	}
	for _, r := range e.replicas {
		r.Close()
	}
	if e.pub != nil {
		e.pub.Close()
	}
	if len(e.servers) > 0 {
		e.servers[0].close()
	}
}

// expectFromPrimary replaces the expected verdicts with the primary's
// own CheckAccessIn answers, so replica replies are compared with the
// primary on the same request.
func expectFromPrimary(e *env, reqs [][]request) error {
	sys := e.world.Sys
	ep := sys.Names().Current()
	for c, rs := range reqs {
		ctx, err := sys.NewContext(load.PrincipalName(c))
		if err != nil {
			return err
		}
		for i := range rs {
			_, err := sys.Names().CheckAccessIn(ep, ctx, ctx.Class(), rs[i].path, rs[i].modes)
			rs[i].allow = err == nil
		}
	}
	return nil
}
