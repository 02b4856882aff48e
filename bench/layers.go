package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"secext"
	"secext/internal/acl"
	"secext/internal/audit"
	"secext/internal/core"
	"secext/internal/load"
	"secext/internal/monitor"
	"secext/internal/names"
	"secext/internal/replica"
)

// sink keeps replayed results alive so the calls cannot be optimized
// away.
var sink int

// timeCalls runs fn over 0..n-1 (wrapping) in batches of 1024 until at
// least d has passed, records one span per batch, and returns the mean
// nanoseconds per call. Batching keeps the clock reads out of the
// per-call price of these sub-microsecond calls.
func timeCalls(tr *tracer, parent int64, name string, n int, d time.Duration, fn func(i int)) float64 {
	const batch = 1024
	var total time.Duration
	calls, i := 0, 0
	for total < d {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			fn(i % n)
			i++
		}
		t1 := time.Now()
		tr.add(parent, name, t0, t1)
		total += t1.Sub(t0)
		calls += batch
	}
	return float64(total.Nanoseconds()) / float64(calls)
}

// replayReads replays connection 0's request stream through each read
// layer's public entry point on the system that served it, d per
// layer.
func replayReads(sys *core.System, reqs []request, tr *tracer, parent int64, d time.Duration) (map[string]float64, error) {
	name := load.PrincipalName(0)
	ctx, err := sys.NewContext(name)
	if err != nil {
		return nil, err
	}
	class, label := ctx.Class(), ctx.ClassLabel()
	ns := sys.Names()
	m := make(map[string]float64)
	n := len(reqs)

	m["core.check_data_us"] = timeCalls(tr, parent, "core.check_data", n, d, func(i int) {
		_, err := sys.CheckData(ctx, reqs[i].path, reqs[i].modes)
		sink += boolInt(err == nil)
	}) / 1e3
	m["names.check_at_ns"] = timeCalls(tr, parent, "names.check_at", n, d, func(i int) {
		_, v, _ := ns.CheckAccessAt(ctx, class, reqs[i].path, reqs[i].modes)
		sink += int(v)
	})
	m["names.check_in_ns"] = timeCalls(tr, parent, "names.check_in", n, d, func(i int) {
		_, err := ns.CheckAccessIn(ns.Current(), ctx, class, reqs[i].path, reqs[i].modes)
		sink += boolInt(err == nil)
	})

	ep := ns.Current()
	decided := 0
	for i := range reqs {
		if _, ok := ep.CompiledAllows(ctx, class, reqs[i].path, reqs[i].modes); ok {
			decided++
		}
	}
	m["names.compiled_ratio"] = float64(decided) / float64(n)

	cache := sys.DecisionCache()
	m["decision.lookup_ns"] = timeCalls(tr, parent, "decision.lookup", n, d, func(i int) {
		_, _, ok := cache.Lookup(ep.Version(), name, class, reqs[i].path, reqs[i].modes)
		sink += boolInt(ok)
	})

	// The guard stack sees the node the walk would hand it; build those
	// requests first so the timed loop prices Check alone.
	mreqs := make([]monitor.Request, min(n, 8192))
	for i := range mreqs {
		node, err := ep.Lookup(reqs[i].path)
		if err != nil {
			return nil, fmt.Errorf("replay: %s: %w", reqs[i].path, err)
		}
		mreqs[i] = monitor.Request{
			Subject: ctx, Class: class, Modes: reqs[i].modes, Members: ep.Membership(), Op: monitor.OpAccess,
			Object: monitor.Object{Path: reqs[i].path, ACL: node.ACL(), Class: node.Class(), Multilevel: node.Multilevel()},
		}
	}
	pipe := sys.Monitor()
	m["monitor.check_ns"] = timeCalls(tr, parent, "monitor.check", len(mreqs), d, func(i int) {
		sink += boolInt(pipe.Check(mreqs[i]).Allow)
	})

	ops := make([]string, n)
	for i := range reqs {
		ops[i] = reqs[i].modes.String()
	}
	log := sys.Audit()
	m["audit.record_ns"] = timeCalls(tr, parent, "audit.record", n, d, func(i int) {
		sink += int(log.Record(audit.Event{Kind: audit.KindData, Subject: name, Class: label,
			Path: reqs[i].path, Op: ops[i], Allowed: reqs[i].allow, Reason: "granted", Epoch: ep.Version()}))
	})
	tel := sys.Telemetry()
	m["telemetry.mediation_ns"] = timeCalls(tr, parent, "telemetry.mediation", n, d, func(i int) {
		tel.Mediation(int(audit.KindData), reqs[i].allow)
	})
	m["acl.parse_mode_ns"] = timeCalls(tr, parent, "acl.parse_mode", n, d, func(i int) {
		mode, _ := acl.ParseMode(ops[i])
		sink += int(mode)
	})
	m["core.self_us"] = m["core.check_data_us"] - (m["names.check_at_ns"]+m["audit.record_ns"]+m["telemetry.mediation_ns"])/1e3
	return m, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// replayDeltas re-derives and encodes the replication delta of each
// captured epoch pair, as the publisher does for every publication.
func replayDeltas(pairs [][2]*names.Epoch, tr *tracer, parent int64) (diffUs, encodeUs, bytes float64, err error) {
	if len(pairs) == 0 {
		return 0, 0, 0, fmt.Errorf("no edits to replay")
	}
	var diff, enc time.Duration
	size := 0
	for _, p := range pairs {
		t0 := time.Now()
		d, err := names.DiffEpochs(p[0], p[1])
		if err != nil {
			return 0, 0, 0, err
		}
		t1 := time.Now()
		body, err := json.Marshal(d)
		if err != nil {
			return 0, 0, 0, err
		}
		t2 := time.Now()
		tr.add(parent, "replica.diff", t0, t1)
		tr.add(parent, "replica.encode", t1, t2)
		diff, enc, size = diff+t1.Sub(t0), enc+t2.Sub(t1), size+len(body)
	}
	k := float64(len(pairs))
	return us(diff) / k, us(enc) / k, float64(size) / k, nil
}

// snapshotCosts prices the bootstrap snapshot of the primary's current
// epoch: encode, gzip and the replica's decompress, and checks the
// round trip.
func snapshotCosts(sys *core.System, tr *tracer, parent int64) (map[string]float64, error) {
	t0 := time.Now()
	wire, err := sys.Names().Current().WireSnapshot()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(replica.SnapshotEnvelope{Epoch: wire, Secret: replica.EncodeSecret(sys.Registry().TokenSecret())})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	gz, err := replica.CompressSnapshot(body)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	raw, err := replica.DecompressSnapshot(gz)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	if !bytes.Equal(raw, body) {
		return nil, fmt.Errorf("snapshot does not survive gzip")
	}
	tr.add(parent, "replica.snapshot_encode", t0, t1)
	tr.add(parent, "replica.gzip", t1, t2)
	tr.add(parent, "replica.decompress", t2, t3)
	return map[string]float64{
		"replica.snapshot_encode_s": t1.Sub(t0).Seconds(),
		"replica.gzip_s":            t2.Sub(t1).Seconds(),
		"replica.decompress_s":      t3.Sub(t2).Seconds(),
		"replica.snapshot_bytes":    float64(len(body)),
		"replica.snapshot_gz_bytes": float64(len(gz)),
	}, nil
}

// buildReplay rebuilds the plan's population on a fresh world the way
// load.Populate does, but drives the tree chunks itself so each
// BindSubtreeUnchecked call is timed from outside.
func buildReplay(p load.Plan, tr *tracer, parent int64) (map[string]float64, error) {
	w, err := secext.NewWorld(production())
	if err != nil {
		return nil, err
	}
	sys := w.Sys
	reg := sys.Registry()
	principals := make([]string, p.Principals)
	for i := range principals {
		principals[i] = load.PrincipalName(i)
	}
	groups := make([]string, p.Groups)
	for g := range groups {
		groups[g] = load.GroupName(g)
	}
	grants := make(map[string][]string, p.Groups)
	for i := range principals {
		g := groups[i%p.Groups]
		grants[g] = append(grants[g], principals[i])
	}
	t0 := time.Now()
	if _, err := sys.AddPrincipals(sys.Lattice().Levels()[0], principals...); err != nil {
		return nil, err
	}
	if err := reg.AddGroups(groups...); err != nil {
		return nil, err
	}
	if _, err := reg.AddMemberships(grants); err != nil {
		return nil, err
	}
	t1 := time.Now()
	tr.add(parent, "principal.populate", t0, t1)

	ns := sys.Names()
	bottom, err := sys.Lattice().Bottom()
	if err != nil {
		return nil, err
	}
	pool := make([]*acl.ACL, p.ACLPool)
	for k := range pool {
		pool[k] = p.ACLPoolEntry(k)
	}
	pubs0, cs0 := ns.Publishes(), ns.CompiledStats()
	if _, err := ns.BindUnchecked("/", names.BindSpec{Name: p.Root[1:], Kind: names.KindDomain, ACL: pool[0], Class: bottom}); err != nil {
		return nil, err
	}
	var chunks []time.Duration
	chunk := make([]names.SubtreeSpec, 0, p.ChunkSize)
	flush := func() error {
		t := time.Now()
		if _, _, err := ns.BindSubtreeUnchecked(p.Root, chunk); err != nil {
			return err
		}
		chunks = append(chunks, time.Since(t))
		tr.add(parent, "names.bind_chunk", t, time.Now())
		chunk = chunk[:0]
		return nil
	}
	for d := 0; d < p.Dirs; d++ {
		dir := fmt.Sprintf("d%05d", d)
		chunk = append(chunk, names.SubtreeSpec{Path: dir, Kind: names.KindDomain, ACL: pool[d%p.ACLPool], Class: bottom})
		for l := 0; l < p.LeavesPerDir; l++ {
			chunk = append(chunk, names.SubtreeSpec{Path: fmt.Sprintf("%s/f%04d", dir, l), Kind: names.KindFile,
				ACL: pool[(d*p.LeavesPerDir+l)%p.ACLPool], Class: bottom})
		}
		// Chunks end on directory boundaries, as in load.BuildTree.
		if len(chunk) >= p.ChunkSize || d == p.Dirs-1 {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	cs1 := ns.CompiledStats()
	compile := (cs1.IndexBuild.SumNS - cs0.IndexBuild.SumNS) + (cs1.SummaryCompile.SumNS - cs0.SummaryCompile.SumNS) +
		(cs1.VisRecompute.SumNS - cs0.VisRecompute.SumNS)
	return map[string]float64{
		"principal.populate_s":    t1.Sub(t0).Seconds(),
		"names.bind_chunk_p50_ms": ms(pct(chunks, 50)),
		"names.bind_chunk_max_ms": ms(pct(chunks, 100)),
		"names.compile_s":         float64(compile) / 1e9,
		"names.publications":      float64(ns.Publishes() - pubs0),
	}, nil
}

// timerLateness measures how late a 500µs sleep wakes on this host:
// the reason all load is closed-loop.
func timerLateness(n int) time.Duration {
	const want = 500 * time.Microsecond
	late := make([]time.Duration, n)
	for i := range late {
		t := time.Now()
		time.Sleep(want)
		late[i] = time.Since(t) - want
	}
	return pct(late, 50)
}

// pct returns the p-th percentile (nearest rank) of ds, sorting ds.
func pct(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(p/100*float64(len(ds))+0.5) - 1
	return ds[max(0, min(i, len(ds)-1))]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
