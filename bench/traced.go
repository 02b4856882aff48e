package main

import (
	"fmt"
	"io"
	"time"
)

// Edits every traced run makes at least, so the write-side layers are
// priced on every workload: ACL replacements and membership toggles.
const (
	probeACLEdits    = 16
	probeMemberEdits = 2
)

// traced runs the traced schedule on the set-up e and returns the
// per-layer metrics measured on it. The schedule: a warm-up, then
// one request in flight untraced (the baseline for the tracing overhead
// and the window of the cache and sampling ratios), one in flight with
// spans, and pipeDepth in flight with read/write counts, each a quarter
// of the window; on edit-churn the edit loop runs beside all of them.
// Then a loopback echo, replays of the read stream through each layer,
// the write-side edits and their delta replays, and the snapshot
// costs.
func traced(w workload, e *env, reqs [][]request, o options, tp *tap, tr *tracer, t *tally, table io.Writer) (map[string]float64, error) {
	m := make(map[string]float64)
	root := tr.begin(0, "run")
	sys, primary := e.target, e.world.Sys
	ns := primary.Names()
	warm, phase := o.window/10, o.window/4

	editSpan := tr.begin(root, "edits")
	var er editResult
	cs0, pubs0 := ns.CompiledStats(), ns.Publishes()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if w.churn {
			e.ed.loop(time.Now().Add(warm+3*phase), &er, tr, editSpan)
		}
	}()

	t.reads(oneInFlight(w, e, reqs, warm, false))
	dc0, tel0 := sys.DecisionCache().Stats(), sys.Telemetry().Snapshot()
	r1 := oneInFlight(w, e, reqs, phase, false)
	dc1, tel1 := sys.DecisionCache().Stats(), sys.Telemetry().Snapshot()
	tp.spansOn.Store(true)
	r2Span := tr.begin(root, "reads.traced")
	r2 := oneInFlight(w, e, reqs, phase, true)
	tr.finish(r2Span)
	tp.spansOn.Store(false)
	tp.countOn.Store(true)
	r3 := readPhase(e.conns, reqs, pipeDepth, phase, false)
	tp.countOn.Store(false)
	<-done
	t.reads(r1)
	t.reads(r2)
	t.reads(r3)

	var server, client []time.Duration
	for c, res := range r2 {
		s, r := link(tr, r2Span, "load.rtt", e.conns[c], res.spans, tp, "remote.server")
		server, client = append(server, s...), append(client, r...)
	}
	if len(server) == 0 {
		return nil, fmt.Errorf("no server spans matched the traced requests")
	}
	untraced, rtt := merge(r1), merge(r2)
	m["load.rtt_us"] = us(pct(rtt.lat, 50))
	m["remote.server_us"] = us(pct(server, 50))
	reads, writes, lines := tp.counts(e.conns)
	m["remote.reads_per_req"] = float64(reads) / float64(lines)
	m["remote.writes_per_req"] = float64(writes) / float64(lines)
	hits, misses := dc1.Hits-dc0.Hits, dc1.Misses-dc0.Misses
	m["decision.hit_ratio"] = float64(hits) / float64(hits+misses)
	a0, d0 := tel0.Mediated()
	a1, d1 := tel1.Mediated()
	m["telemetry.sampled_ratio"] = float64(tel1.TracesSampled-tel0.TracesSampled) / float64(a1+d1-a0-d0)

	restore := w.pin()
	echo, transit, err := echoRTT(reqs[0], o.window*15/100, tr, root)
	restore()
	if err != nil {
		return nil, err
	}
	m["net.echo_rtt_us"] = us(echo)

	replay := tr.begin(root, "replay.reads")
	layers, err := replayReads(sys, reqs[0], tr, replay, max(20*time.Millisecond, o.window/100))
	tr.finish(replay)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		m[k] = v
	}
	m["remote.self_us"] = m["remote.server_us"] - m["core.check_data_us"]

	if e.ed == nil {
		if e.ed, err = newEditor(e, o.seed); err != nil {
			return nil, err
		}
		cs0, pubs0 = ns.CompiledStats(), ns.Publishes()
	}
	for len(er.aclCall) < probeACLEdits {
		e.ed.step(false, &er, tr, editSpan)
	}
	for len(er.memCall) < probeMemberEdits {
		e.ed.step(true, &er, tr, editSpan)
	}
	tr.finish(editSpan)
	t.edits(er)
	cs1, edits := ns.CompiledStats(), float64(er.ops)
	m["names.edit_call_us"] = us(pct(er.aclCall, 50))
	m["principal.member_call_ms"] = ms(pct(er.memCall, 50))
	m["names.compile_index_us"] = float64(cs1.IndexBuild.SumNS-cs0.IndexBuild.SumNS) / edits / 1e3
	m["names.compile_summary_us"] = float64(cs1.SummaryCompile.SumNS-cs0.SummaryCompile.SumNS) / edits / 1e3
	m["names.compile_vis_us"] = float64(cs1.VisRecompute.SumNS-cs0.VisRecompute.SumNS) / edits / 1e3
	m["names.publishes_per_edit"] = float64(ns.Publishes()-pubs0) / edits
	deltas := tr.begin(root, "replay.deltas")
	m["replica.diff_us"], m["replica.encode_us"], m["replica.delta_bytes"], err = replayDeltas(er.pairs, tr, deltas)
	tr.finish(deltas)
	if err != nil {
		return nil, err
	}

	snap := tr.begin(root, "snapshot")
	costs, err := snapshotCosts(primary, tr, snap)
	tr.finish(snap)
	if err != nil {
		return nil, err
	}
	for k, v := range costs {
		m[k] = v
	}

	tr.finish(root)
	fmt.Fprintf(table, "tracing overhead: one-in-flight p50 %.3f us traced vs %.3f us untraced (x%.3f)\n",
		us(pct(rtt.lat, 50)), us(pct(untraced.lat, 50)), float64(pct(rtt.lat, 50))/float64(pct(untraced.lat, 50)))
	loadSelf := us(pct(client, 50))
	readSum := loadSelf + m["remote.self_us"] + m["core.self_us"] +
		(m["names.check_at_ns"]+m["audit.record_ns"]+m["telemetry.mediation_ns"])/1e3
	fmt.Fprintf(table, "read side: load+net self %.3f (loopback echo transit %.3f) + remote self %.3f + core self %.3f + names %.3f + audit %.3f + telemetry %.3f = %.3f us; traced p50 %.3f us (x%.3f)\n",
		loadSelf, us(transit), m["remote.self_us"], m["core.self_us"], m["names.check_at_ns"]/1e3, m["audit.record_ns"]/1e3,
		m["telemetry.mediation_ns"]/1e3, readSum, m["load.rtt_us"], readSum/m["load.rtt_us"])
	calls := append(append([]time.Duration(nil), er.aclCall...), er.memCall...)
	writeSum := ms(pct(calls, 50)) + ms(pct(er.barrier, 50))
	fmt.Fprintf(table, "write side: edit call %.3f + barrier %.3f = %.3f ms; edit visible p50 %.3f ms (x%.3f) over %d edits\n",
		ms(pct(calls, 50)), ms(pct(er.barrier, 50)), writeSum, ms(pct(er.vis, 50)), writeSum/ms(pct(er.vis, 50)), er.ops)
	fmt.Fprintf(table, "  names.edit_call_p99_us %.3f  principal.member_call_p99_ms %.3f  edit_visible_p99_ms %.3f\n",
		us(pct(er.aclCall, 99)), ms(pct(er.memCall, 99)), ms(pct(er.vis, 99)))
	if len(e.replicas) > 0 {
		perReplica := e.connect.Seconds() / float64(len(e.replicas))
		barrier := ms(pct(er.barrier, 50))
		fmt.Fprintf(table, "replicas: replica.connect_s %.4f  replica.rebuild_s %.4f  replica.barrier_ms %.4f  replica.apply_ms %.4f\n",
			perReplica, perReplica-m["replica.snapshot_encode_s"]-m["replica.gzip_s"]-m["replica.decompress_s"],
			barrier, barrier-(m["replica.diff_us"]+m["replica.encode_us"]+m["net.echo_rtt_us"])/1e3)
	}
	tr.printSelfTimes(table)
	return m, nil
}

// echoRTT times round trips of the request lines against a loopback
// echo server for d and returns the median round trip and its transit
// share: the round trip minus the echo server's own read-to-write time.
func echoRTT(reqs []request, d time.Duration, tr *tracer, parent int64) (rtt, transit time.Duration, err error) {
	tp := &tap{}
	tp.spansOn.Store(true)
	s, err := startEcho(tp)
	if err != nil {
		return 0, 0, err
	}
	defer s.close()
	c, err := dialRaw(s.l.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	defer c.close()
	span := tr.begin(parent, "echo")
	res := c.closedLoop(reqs, time.Now().Add(d), true, checkEcho)
	tr.finish(span)
	if res.err != nil {
		return 0, 0, res.err
	}
	_, rest := link(tr, span, "net.echo_rtt", c, res.spans, tp, "net.echo_server")
	return pct(res.lat, 50), pct(rest, 50), nil
}
