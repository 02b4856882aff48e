package experiments

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"time"

	"secext"
	"secext/internal/lattice"
	"secext/internal/load"
	"secext/internal/names"
	"secext/internal/remote"
	"secext/internal/replica"
	"secext/internal/telemetry"
)

// e20Scale reads the experiment scale from the environment so the same
// code serves both the CI smoke (small defaults, seconds) and the real
// bench-load run (10^6 nodes / 10^5 principals, minutes):
//
//	SECEXT_E20_NODES       tree size (default 10 000)
//	SECEXT_E20_PRINCIPALS  registry population (default 2 000)
func e20Scale() (nodes, principals int) {
	nodes, principals = 10_000, 2_000
	if v, err := strconv.Atoi(os.Getenv("SECEXT_E20_NODES")); err == nil && v > 0 {
		nodes = v
	}
	if v, err := strconv.Atoi(os.Getenv("SECEXT_E20_PRINCIPALS")); err == nil && v > 0 {
		principals = v
	}
	return nodes, principals
}

// e20Plan derives the load plan for the configured scale. Groups and
// the ACL pool scale sublinearly with the population, mirroring how
// real deployments share policy across many objects.
func e20Plan(nodes, principals int) load.Plan {
	cfg := load.Defaults()
	cfg.Nodes = nodes
	cfg.Principals = principals
	cfg.Groups = principals / 32
	if cfg.Groups < 4 {
		cfg.Groups = 4
	}
	cfg.ACLPool = nodes / 64
	if cfg.ACLPool < 16 {
		cfg.ACLPool = 16
	}
	return load.NewPlan(cfg)
}

// E20 prices the compact epoch layout at scale: a synthetic tree of
// SECEXT_E20_NODES nodes (10^6 for bench-load) under a population of
// SECEXT_E20_PRINCIPALS principals, built through the bulk bind path,
// then measured three ways, edited, and bootstrapped onto one replica
// over loopback TCP. Remote CHECK serving is secbench's to price
// (bench/: op_p50_us, op_p99_us, ops_s, pipe_ops_s).
//
// Columns:
//
//   - map B/node: the measured (GC-bracketed heap delta, not estimated)
//     retained bytes per node of the pre-PR-10 representation — map
//     children, per-node path/name strings, per-node ACL clones —
//     rebuilt as a shadow structure on the identical population.
//   - slice B/node: the same measurement for the live representation,
//     built through the same bulk binds on a bare name server: sorted
//     []childRef children, interned paths (names derived, never
//     stored), canonicalized shared ACLs and classes. Tree-only: the
//     server's intern/dedup tables are dropped before the closing heap
//     reading, since they are server-wide state amortized across every
//     epoch, reported separately by the footprint gauges.
//   - reduction: map/slice. The acceptance bar is >= 2x.
//   - accounted B/node: the footprint analytic estimate (Server.Stats) for the
//     full system's tree, cross-checking the accounting the telemetry
//     gauges export against the measured truth.
//   - index B/node: the measured retained heap of the full system's
//     compiled read side — the persistent path index and its entries,
//     plus the per-ACL summaries and visibility chains — per node,
//     priced by dropping the compiled view and compiling it again. The
//     slice column never includes it: its bare server has no registry,
//     so nothing is compiled.
//   - acl dedupe: distinct ACL values per reference (footprint view).
//   - warm check: in-process mediated CheckData on a zipf-hot leaf,
//     comparable to the E13/E17 warm band.
//   - replica bootstrap s and bootstrap alloc MB: one replica.Connect
//     to the full system over loopback TCP, from dial to a serving
//     replica (snapshot encode, frames, decode, tree build and compile),
//     and the bytes both ends allocated meanwhile — they share the
//     process, so the column counts the primary's encoding too.
//   - leaf edit p50 / p99 and new principal p50: the write side at
//     this scale, as in E16.
func E20() Result {
	res := Result{ID: "E20",
		Title: "Million-object epochs: compact layout footprint, edits and replica bootstrap"}
	nodes, principals := e20Scale()
	p := e20Plan(nodes, principals)

	w, _, err := telWorld(telemetry.ModeOff, false)
	if err != nil {
		res.Err = fmt.Errorf("E20: world: %w", err)
		return res
	}
	t0 := time.Now()
	st, err := load.Populate(w.Sys, p)
	if err != nil {
		res.Err = fmt.Errorf("E20: populate: %w", err)
		return res
	}
	buildTime := time.Since(t0)

	// Measured footprints: identical population, two representations,
	// both priced by GC-bracketed retained-heap deltas.
	lat, err := lattice.NewWithUniverse([]string{"others", "organization", "local"}, nil)
	if err != nil {
		res.Err = fmt.Errorf("E20: lattice: %w", err)
		return res
	}
	bottom, err := lat.Bottom()
	if err != nil {
		res.Err = fmt.Errorf("E20: bottom: %w", err)
		return res
	}
	// Build on a bare name server, then keep only the published epoch:
	// the server (interner table, dedup tables, journal, batch
	// machinery) is dropped — and the lattice's publish hook cleared so
	// nothing pins it — before the closing heap reading, so the delta
	// prices the TREE representation alone, symmetric with the map
	// baseline below. The tables are server-wide state that amortizes
	// across every epoch the server ever publishes; their retained
	// bytes are reported separately by the footprint gauges
	// (secext_interner_bytes), not smuggled into the per-node layout
	// comparison.
	var keepEpoch *names.Epoch
	sliceBytes := load.HeapDelta(func() {
		bare := names.NewServer(lat, secext.NewACL(secext.AllowEveryone(secext.List)), bottom)
		if e := load.BuildTree(bare, p, bottom); e != nil && err == nil {
			err = e
		}
		keepEpoch = bare.Current()
		lat.SetPublishHook(nil)
	})
	if err != nil {
		res.Err = fmt.Errorf("E20: slice-layout build: %w", err)
		return res
	}
	var mapRoot any
	var mapNodes int
	mapBytes := load.HeapDelta(func() {
		mapRoot, mapNodes = load.BuildMapBaseline(p, bottom)
	})
	// Both shadow structures must outlive BOTH measurements: if the
	// slice-layout tree dies while the map baseline is being measured,
	// its freed bytes cancel the baseline's allocation and the delta
	// goes negative.
	runtime.KeepAlive(keepEpoch)
	runtime.KeepAlive(mapRoot)
	if mapNodes != p.TotalNodes {
		res.Err = fmt.Errorf("E20: baseline built %d nodes, want %d", mapNodes, p.TotalNodes)
		return res
	}
	slicePer := float64(sliceBytes) / float64(p.TotalNodes)
	mapPer := float64(mapBytes) / float64(p.TotalNodes)
	reduction := mapPer / slicePer
	if reduction < 2 {
		res.Err = fmt.Errorf("E20: layout reduction %.2fx below the 2x bar (map %.0f B/node, slice %.0f B/node)",
			reduction, mapPer, slicePer)
	}
	fp := w.Sys.Names().Stats().Footprint
	w.Sys.Names().SetCompiledEpochs(false)
	indexPer := float64(load.HeapDelta(func() { w.Sys.Names().SetCompiledEpochs(true) })) / float64(p.TotalNodes)

	// Warm in-process check on the zipf-hottest leaf, for comparability
	// with the E13/E17 warm band.
	ctx, err := w.Sys.NewContext(load.PrincipalName(0))
	if err != nil {
		res.Err = fmt.Errorf("E20: context: %w", err)
		return res
	}
	hot := p.LeafPath(0)
	if _, err := w.Sys.CheckData(ctx, hot, secext.Read); err != nil {
		res.Err = fmt.Errorf("E20: warm check: %w", err)
		return res
	}
	warm := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			if _, e := w.Sys.CheckData(ctx, hot, secext.Read); e != nil {
				panic(e)
			}
		}
	})

	// Write side at this scale: leaf ACL edits, then new principals.
	wbottom, err := w.Sys.Lattice().Bottom()
	if err != nil {
		res.Err = fmt.Errorf("E20: bottom: %w", err)
		return res
	}
	edits, err := leafEdits(w.Sys.Names(), p, wbottom, 1000)
	if err != nil {
		res.Err = fmt.Errorf("E20: leaf edits: %w", err)
		return res
	}
	adds, err := newPrincipals(w.Sys.Registry(), wbottom, "late", 20)
	if err != nil {
		res.Err = fmt.Errorf("E20: new principals: %w", err)
		return res
	}

	// One replica bootstrap over the real line protocol on loopback.
	rtok, err := addReplicator(w)
	if err != nil {
		res.Err = fmt.Errorf("E20: replicator: %w", err)
		return res
	}
	srv := remote.NewServer(w.Sys)
	pub := replica.NewPublisher(w.Sys)
	srv.SetPublisher(pub)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		res.Err = fmt.Errorf("E20: listen: %w", err)
		return res
	}
	go srv.Serve(l)
	defer l.Close()
	defer srv.Close()
	boot, bootAlloc, err := bootstrapCost(l.Addr().String(), rtok)
	pub.Close()
	if err != nil {
		res.Err = fmt.Errorf("E20: replica bootstrap: %w", err)
		return res
	}

	t := &table{header: []string{
		"nodes", "principals", "build s", "pubs",
		"map B/node", "slice B/node", "reduction",
		"accounted B/node", "index B/node", "acl dedupe",
		"warm check",
		"leaf edit p50 / p99", "new principal p50",
		"replica bootstrap s", "bootstrap alloc MB",
	}}
	t.add(
		fmt.Sprintf("%d", p.TotalNodes),
		fmt.Sprintf("%d", st.Principals),
		fmt.Sprintf("%.2f", buildTime.Seconds()),
		fmt.Sprintf("%d", st.Publications),
		fmt.Sprintf("%.0f", mapPer),
		fmt.Sprintf("%.0f", slicePer),
		fmt.Sprintf("%.2fx", reduction),
		fmt.Sprintf("%.0f", fp.BytesPerNode),
		fmt.Sprintf("%.0f", indexPer),
		fmt.Sprintf("%.1fx", fp.ACLDedupRatio),
		ns(warm),
		fmt.Sprintf("%s / %s", ns(pct(edits, 0.5)), ns(pct(edits, 0.99))),
		ns(pct(adds, 0.5)),
		fmt.Sprintf("%.2f", boot.Seconds()),
		fmt.Sprintf("%.0f", float64(bootAlloc)/1e6),
	)
	res.setTable(t)
	return res
}

// bootstrapCost connects one replica to the primary serving on addr and
// returns how long replica.Connect took and how many bytes the process
// allocated meanwhile. The replica is closed before it returns.
func bootstrapCost(addr, token string) (time.Duration, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	r, err := replica.Connect(replica.Options{Addr: addr, Token: token})
	took := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, 0, err
	}
	r.Close()
	return took, m1.TotalAlloc - m0.TotalAlloc, nil
}
