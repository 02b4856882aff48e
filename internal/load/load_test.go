package load

import (
	"runtime"
	"testing"

	"secext/internal/acl"
	"secext/internal/core"
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

	// The mediated verdicts load generators rely on: any principal may
	// read a leaf, and no pool ACL grants execute (leaves 0..ACLPool-1
	// carry every pool entry), so an execute check is a clean denial.
	ctx, err := sys.NewContext(PrincipalName(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CheckData(ctx, p.LeafPath(0), acl.Read); err != nil {
		t.Fatalf("read %s: %v", p.LeafPath(0), err)
	}
	for i := 0; i < p.ACLPool; i++ {
		if _, err := sys.CheckData(ctx, p.LeafPath(i), acl.Execute); !core.IsDenied(err) {
			t.Fatalf("execute %s: err = %v, want a denial", p.LeafPath(i), err)
		}
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
