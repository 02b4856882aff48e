// Package load builds large synthetic name trees: a deterministic
// million-object tree (shape, ACL pool, principal population), the
// leaf-index→path mapping that workload generators sample, and the
// GC-bracketed heap accounting that prices a layout. It is the
// machinery behind the E20 scale experiment and the secbench workloads
// (bench/), so both measure the same population.
package load

import (
	"fmt"
	"runtime"
	"time"

	"secext/internal/acl"
	"secext/internal/core"
	"secext/internal/lattice"
	"secext/internal/names"
	"secext/internal/principal"
)

// Config describes one synthetic population: tree size and shape, the
// principal/group population, and the distinct-ACL pool scattered over
// the tree. The zero value is not usable; start from Defaults.
type Config struct {
	// Nodes is the approximate tree size under Root (the builder rounds
	// to whole directories; see Plan).
	Nodes int
	// LeavesPerDir is the fan-out of each directory.
	LeavesPerDir int
	// Principals and Groups populate the registry; every principal is a
	// member of one group (index mod Groups).
	Principals int
	Groups     int
	// ACLPool is the number of distinct ACL values scattered over the
	// tree. Every pool entry grants everyone read+list (so any principal
	// can drive check traffic) plus distinguishing principal and group
	// entries.
	ACLPool int
	// Root is the directory the tree is built under.
	Root string
	// ChunkSize bounds one BindSubtreeUnchecked call (one epoch
	// publication per chunk).
	ChunkSize int
	// Seed fixes every pseudo-random choice.
	Seed int64
	// Zipf is the skew parameter s (> 1) of the leaf-index distribution.
	Zipf float64
}

// Defaults is a small, CI-sized population. Scale Nodes/Principals up
// for real runs (bench-load uses 10^6 / 10^5).
func Defaults() Config {
	return Config{
		Nodes:        10_000,
		LeavesPerDir: 256,
		Principals:   2_000,
		Groups:       64,
		ACLPool:      512,
		Root:         "/load",
		ChunkSize:    20_000,
		Seed:         1,
		Zipf:         1.1,
	}
}

// Plan is the concrete shape derived from a Config: Dirs directories,
// each with exactly LeavesPerDir leaves, under the Root directory.
type Plan struct {
	Config
	Dirs   int
	Leaves int
	// TotalNodes counts the Root directory, the Dirs, and the Leaves.
	TotalNodes int
}

// NewPlan rounds the configured node count to whole directories.
func NewPlan(cfg Config) Plan {
	if cfg.LeavesPerDir <= 0 {
		cfg.LeavesPerDir = 256
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 20_000
	}
	if cfg.Root == "" {
		cfg.Root = "/load"
	}
	if cfg.Zipf <= 1 {
		cfg.Zipf = 1.1
	}
	dirs := (cfg.Nodes - 1 + cfg.LeavesPerDir) / (cfg.LeavesPerDir + 1)
	if dirs < 1 {
		dirs = 1
	}
	return Plan{
		Config:     cfg,
		Dirs:       dirs,
		Leaves:     dirs * cfg.LeavesPerDir,
		TotalNodes: 1 + dirs + dirs*cfg.LeavesPerDir,
	}
}

// DirPath returns the path of directory d.
func (p Plan) DirPath(d int) string {
	return fmt.Sprintf("%s/d%05d", p.Root, d)
}

// LeafPath maps leaf index i (0 <= i < Leaves) to its path. Zipf
// sampling draws indices; this turns them into check targets.
func (p Plan) LeafPath(i int) string {
	return fmt.Sprintf("%s/d%05d/f%04d", p.Root, i/p.LeavesPerDir, i%p.LeavesPerDir)
}

// PrincipalName returns the name of principal i.
func PrincipalName(i int) string { return fmt.Sprintf("p%06d", i) }

// GroupName returns the name of group g.
func GroupName(g int) string { return fmt.Sprintf("g%03d", g) }

// ACLPoolEntry builds the k-th distinct ACL of the pool: everyone may
// read and list (so check traffic from any principal is allowed), and
// the distinguishing write/delete entries reference a real principal
// and a real group so the ACLs exercise the registry like hand-written
// policy would.
func (p Plan) ACLPoolEntry(k int) *acl.ACL {
	return acl.New(
		acl.AllowEveryone(acl.Read|acl.List),
		acl.Allow(PrincipalName((k*7)%p.Principals), acl.Write|acl.Delete),
		acl.AllowGroup(GroupName(k%p.Groups), acl.Write|acl.Administrate),
	)
}

// aclFor assigns every node a pool entry: directories by directory
// index, leaves by global leaf index.
func (p Plan) dirACLIndex(d int) int  { return d % p.ACLPool }
func (p Plan) leafACLIndex(i int) int { return i % p.ACLPool }

// BuildStats reports what Populate did and what it cost.
type BuildStats struct {
	Plan         Plan
	Principals   int
	Groups       int
	TreeNodes    int
	Publications uint64
	RegistryTime time.Duration
	TreeTime     time.Duration
}

// Populate fills a system with the plan's population: principals,
// groups, and memberships in one registry Apply (one freeze — per-entity
// registration is quadratic at this scale), then the tree in ChunkSize
// bulk-bind publications.
func Populate(sys *core.System, p Plan) (BuildStats, error) {
	st := BuildStats{Plan: p}
	bottom, err := sys.Lattice().Bottom()
	if err != nil {
		return st, err
	}

	t0 := time.Now()
	edits := make([]principal.Edit, 0, 2*p.Principals+p.Groups)
	for i := 0; i < p.Principals; i++ {
		edits = append(edits, principal.AddPrincipal(PrincipalName(i), bottom))
	}
	for g := 0; g < p.Groups; g++ {
		edits = append(edits, principal.AddGroup(GroupName(g)))
	}
	for i := 0; i < p.Principals; i++ {
		edits = append(edits, principal.AddMember(GroupName(i%p.Groups), PrincipalName(i)))
	}
	if _, err := sys.Registry().Apply(edits...); err != nil {
		return st, err
	}
	st.Principals, st.Groups = p.Principals, p.Groups
	st.RegistryTime = time.Since(t0)

	t1 := time.Now()
	pubs0 := sys.Names().Publishes()
	if err := BuildTree(sys.Names(), p, bottom); err != nil {
		return st, err
	}
	st.TreeTime = time.Since(t1)
	st.Publications = sys.Names().Publishes() - pubs0
	st.TreeNodes = 1 + p.Dirs + p.Leaves
	return st, nil
}

// BuildTree builds the plan's tree on a bare name server (no checks,
// ChunkSize specs per publication). The ACL pool is materialized once
// and shared across chunks, so the server's dedup table sees the same
// pointers it canonicalized before.
func BuildTree(ns *names.Server, p Plan, class lattice.Class) error {
	pool := make([]*acl.ACL, p.ACLPool)
	for k := range pool {
		pool[k] = p.ACLPoolEntry(k)
	}
	if _, err := ns.BindUnchecked("/", names.BindSpec{
		Name: p.Root[1:], Kind: names.KindDomain, ACL: pool[0], Class: class,
	}); err != nil {
		return err
	}
	chunk := make([]names.SubtreeSpec, 0, p.ChunkSize)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if _, _, err := ns.BindSubtreeUnchecked(p.Root, chunk); err != nil {
			return err
		}
		chunk = chunk[:0]
		return nil
	}
	for d := 0; d < p.Dirs; d++ {
		dir := fmt.Sprintf("d%05d", d)
		chunk = append(chunk, names.SubtreeSpec{
			Path: dir, Kind: names.KindDomain, ACL: pool[p.dirACLIndex(d)], Class: class,
		})
		for l := 0; l < p.LeavesPerDir; l++ {
			chunk = append(chunk, names.SubtreeSpec{
				Path: fmt.Sprintf("%s/f%04d", dir, l), Kind: names.KindFile,
				ACL: pool[p.leafACLIndex(d*p.LeavesPerDir+l)], Class: class,
			})
		}
		// Flush on directory boundaries only, so a chunk never needs a
		// parent from a previous chunk.
		if len(chunk) >= p.ChunkSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// HeapDelta runs build between two garbage-collected heap readings and
// returns the retained-byte delta. The caller must keep the built
// structure reachable (return it from build's closure scope) or the
// second GC frees what the first reading excluded.
func HeapDelta(build func()) int64 {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	build()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
}
