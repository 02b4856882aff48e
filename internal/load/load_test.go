package load

import (
	"net"
	"runtime"
	"testing"
	"time"

	"secext/internal/core"
	"secext/internal/remote"
	"secext/internal/telemetry"
)

func TestPlanShape(t *testing.T) {
	cfg := Defaults()
	cfg.Nodes = 1000
	cfg.LeavesPerDir = 100
	p := NewPlan(cfg)
	if p.Dirs != 10 {
		t.Fatalf("Dirs = %d, want 10", p.Dirs)
	}
	if p.Leaves != 1000 {
		t.Fatalf("Leaves = %d, want 1000", p.Leaves)
	}
	if p.TotalNodes != 1+10+1000 {
		t.Fatalf("TotalNodes = %d, want 1011", p.TotalNodes)
	}
	if got := p.DirPath(3); got != "/load/d00003" {
		t.Fatalf("DirPath(3) = %q", got)
	}
	if got := p.LeafPath(205); got != "/load/d00002/f0005" {
		t.Fatalf("LeafPath(205) = %q", got)
	}

	// Degenerate configs are clamped, never zero or negative.
	tiny := NewPlan(Config{Nodes: 1})
	if tiny.Dirs < 1 || tiny.TotalNodes < 2 {
		t.Fatalf("tiny plan: %+v", tiny)
	}
}

func TestACLPoolReferencesPopulation(t *testing.T) {
	cfg := Defaults()
	cfg.Principals = 10
	cfg.Groups = 3
	cfg.ACLPool = 7
	p := NewPlan(cfg)
	for k := 0; k < p.ACLPool; k++ {
		a := p.ACLPoolEntry(k)
		if a == nil || len(a.Entries()) == 0 {
			t.Fatalf("pool entry %d empty", k)
		}
	}
	// Distinct pool indices yield distinct ACL values (that is the point
	// of the pool: a bounded number of DISTINCT policies).
	if p.ACLPoolEntry(0).String() == p.ACLPoolEntry(1).String() {
		t.Fatal("pool entries 0 and 1 identical")
	}
}

func TestZipfPickerDeterministicAndSkewed(t *testing.T) {
	cfg := Defaults()
	cfg.Nodes = 1000
	p := NewPlan(cfg)
	a, b := p.NewZipfPicker(7), p.NewZipfPicker(7)
	hot := 0
	for i := 0; i < 1000; i++ {
		x, y := a(), b()
		if x != y {
			t.Fatalf("pickers diverge at %d: %d vs %d", i, x, y)
		}
		if x < 0 || x >= p.Leaves {
			t.Fatalf("index %d out of range", x)
		}
		if x == 0 {
			hot++
		}
	}
	if hot < 100 {
		t.Fatalf("zipf skew missing: leaf 0 drawn %d/1000 times", hot)
	}
}

func TestLatenciesPercentiles(t *testing.T) {
	var l Latencies
	for i := 1; i <= 100; i++ {
		l.Add(time.Duration(i) * time.Millisecond)
	}
	var m Latencies
	m.Merge(&l)
	if m.Count() != 100 {
		t.Fatalf("Count = %d", m.Count())
	}
	if got := m.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %s", got)
	}
	if got := m.Percentile(99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %s", got)
	}
	var empty Latencies
	if empty.Percentile(50) != 0 {
		t.Fatal("empty percentile not zero")
	}
}

func TestHeapDeltaMeasuresRetention(t *testing.T) {
	var keep []byte
	d := HeapDelta(func() { keep = make([]byte, 1<<20) })
	// keep must stay live past the second GC inside HeapDelta; a dead
	// store would let the delta cancel to ~zero (the exact bug the E20
	// runner guards against with its own KeepAlives). The bracket GCs
	// can reclaim a few hundred unrelated bytes, so allow slack below
	// the slice size.
	runtime.KeepAlive(keep)
	if d < 1<<20-8192 {
		t.Fatalf("HeapDelta = %d, want ~1MiB", d)
	}
}

// newTestSystem builds a bare system the way telWorld does, without
// importing the secext facade (which would cycle back into load's
// consumers).
func newTestSystem(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.Options{
		Levels:       []string{"others", "organization", "local"},
		Categories:   []string{"dept-1", "dept-2"},
		DisableAudit: true,
		Telemetry:    telemetry.Options{Mode: telemetry.ModeOff},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPopulateAndMapBaselineAgreeOnShape(t *testing.T) {
	cfg := Defaults()
	cfg.Nodes = 300
	cfg.LeavesPerDir = 50
	cfg.Principals = 40
	cfg.Groups = 4
	cfg.ACLPool = 16
	p := NewPlan(cfg)

	sys := newTestSystem(t)
	st, err := Populate(sys, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.TreeNodes != p.TotalNodes {
		t.Fatalf("built %d nodes, want %d", st.TreeNodes, p.TotalNodes)
	}
	if st.Principals != p.Principals || st.Groups != p.Groups {
		t.Fatalf("population %d/%d, want %d/%d", st.Principals, st.Groups, p.Principals, p.Groups)
	}
	if st.Publications == 0 || st.Publications > uint64(p.TotalNodes) {
		t.Fatalf("publications = %d (bulk bind should batch)", st.Publications)
	}

	// Every planned leaf resolves, and ACL assignment is pool-shared:
	// the live tree must dedupe down to at most the pool size.
	// The live tree holds the plan's nodes plus the name-space root "/"
	// the server itself owns.
	fp := sys.Names().Stats().Footprint
	if fp.Nodes != p.TotalNodes+1 {
		t.Fatalf("footprint sees %d nodes, want %d", fp.Nodes, p.TotalNodes+1)
	}
	if fp.DistinctACLs > p.ACLPool+1 { // +1 for the root ACL
		t.Fatalf("%d distinct ACLs, pool is %d", fp.DistinctACLs, p.ACLPool)
	}
	if fp.NameBytes != 0 {
		t.Fatalf("NameBytes = %d, names must be derived, never stored", fp.NameBytes)
	}

	// The map-children shadow baseline reproduces the identical shape.
	bottom, err := sys.Lattice().Bottom()
	if err != nil {
		t.Fatal(err)
	}
	root, n := BuildMapBaseline(p, bottom)
	if root == nil || n != p.TotalNodes {
		t.Fatalf("baseline built %d nodes, want %d", n, p.TotalNodes)
	}
}

func TestDriveZipfOverLoopback(t *testing.T) {
	cfg := Defaults()
	cfg.Nodes = 200
	cfg.LeavesPerDir = 50
	cfg.Principals = 20
	cfg.Groups = 4
	cfg.ACLPool = 8
	p := NewPlan(cfg)

	sys := newTestSystem(t)
	if _, err := Populate(sys, p); err != nil {
		t.Fatal(err)
	}
	tok, err := sys.Registry().IssueToken(PrincipalName(0))
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(sys)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer l.Close()
	defer srv.Close()

	// Single manual round trip first: allowed check and a clean denial.
	c, err := Dial(l.Addr().String(), tok)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := c.Check(p.LeafPath(0), "read")
	if err != nil || !ok {
		t.Fatalf("read check: ok=%v err=%v", ok, err)
	}
	ok, err = c.Check(p.LeafPath(1), "execute")
	if err != nil {
		t.Fatalf("execute check transport error: %v", err)
	}
	if ok {
		t.Fatal("execute allowed: no pool entry grants it")
	}
	c.Close()

	tr, err := DriveZipf(l.Addr().String(), []string{tok}, p, 400, 250*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Errors > 0 {
		t.Fatalf("%d transport errors", tr.Errors)
	}
	if tr.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if tr.P50 <= 0 || tr.P99 < tr.P50 {
		t.Fatalf("latency ordering broken: p50=%s p99=%s", tr.P50, tr.P99)
	}
}
