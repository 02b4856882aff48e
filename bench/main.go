// Command secbench is secext's workload-level benchmark. It builds a
// production-configured secext world (secextd's defaults: audit on,
// telemetry sampled, decision cache and compiled epochs on), serves it
// over loopback TCP, drives one of four closed-loop workloads against
// it, checks every verdict, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"setup_s":{"value":1.2,"unit":"s"},...}}
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload check-deny --seed 3 --seconds 10 --trace 0
//	go -C bench run . -workload edit-churn -trace 1
//
// -trace 0 reports the end-to-end metrics. -trace 1 is a separate
// traced run: it prices each layer from outside by timing calls into
// each module's public functions, writes the spans as JSON lines, and
// reports the per-layer metrics. See README.md for the workloads, the
// metrics and the layer-to-metric mapping.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// setupRuns is how many times a run sets its workload up; setup_s and
// heap_b_per_node are medians over them and the last set-up is
// measured.
const setupRuns = 3

// pipeDepth is the number of requests kept in flight per connection in
// the pipelined phases.
const pipeDepth = 32

type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports. The closed-loop
// operation (op_*) is a CHECK on check-allow, check-deny and
// bulk-load, and an edit until every replica acked it on edit-churn.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"ops_s", "1/s"},
	{"pipe_ops_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"heap_b_per_node", "B"},
}

// perLayer are the metrics a -trace 1 run reports.
var perLayer = []metricDef{
	{"load.rtt_us", "us"},
	{"net.echo_rtt_us", "us"},
	{"remote.server_us", "us"},
	{"remote.self_us", "us"},
	{"remote.writes_per_req", "count"},
	{"remote.reads_per_req", "count"},
	{"core.check_data_us", "us"},
	{"core.self_us", "us"},
	{"names.check_at_ns", "ns"},
	{"names.check_in_ns", "ns"},
	{"names.compiled_ratio", "ratio"},
	{"decision.hit_ratio", "ratio"},
	{"decision.lookup_ns", "ns"},
	{"monitor.check_ns", "ns"},
	{"audit.record_ns", "ns"},
	{"telemetry.mediation_ns", "ns"},
	{"telemetry.sampled_ratio", "ratio"},
	{"acl.parse_mode_ns", "ns"},
	{"names.edit_call_us", "us"},
	{"principal.member_call_ms", "ms"},
	{"names.compile_index_us", "us"},
	{"names.compile_summary_us", "us"},
	{"names.compile_vis_us", "us"},
	{"names.publishes_per_edit", "count"},
	{"replica.diff_us", "us"},
	{"replica.encode_us", "us"},
	{"replica.delta_bytes", "B"},
	{"principal.populate_s", "s"},
	{"names.bind_chunk_p50_ms", "ms"},
	{"names.bind_chunk_max_ms", "ms"},
	{"names.compile_s", "s"},
	{"names.publications", "count"},
	{"replica.snapshot_encode_s", "s"},
	{"replica.gzip_s", "s"},
	{"replica.decompress_s", "s"},
	{"replica.snapshot_bytes", "B"},
	{"replica.snapshot_gz_bytes", "B"},
	{"load.timer_late_us", "us"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	seed   int64
	window time.Duration
	trace  bool
	spans  string // traced runs write their spans here
}

func main() {
	name := flag.String("workload", "check-allow", "check-allow, check-deny, edit-churn or bulk-load")
	seed := flag.Int64("seed", 1, "seed of the tree relabelling, zipf ranks and draws, and edit choices")
	seconds := flag.Float64("seconds", 10, "measured window per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics and writing spans")
	spans := flag.String("spans", "", "span output of a traced run (default .bench_build/spans-<workload>.jsonl)")
	jsonOnly := flag.Bool("json", false, "print only the JSON result line")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("-seconds must be positive and -trace 0 or 1"))
	}
	o := options{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, spans: *spans}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
	}
	var table io.Writer = os.Stdout
	if *jsonOnly {
		table = io.Discard
	}
	rep, err := run(w, o, table)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "secbench:", err)
	os.Exit(2)
}

// tally counts every closed-loop operation of a run and its failures.
type tally struct {
	attempted, failed int
	err               error
}

func (t *tally) reads(rs []loopResult) {
	for _, r := range rs {
		t.attempted += r.ops
		t.failed += r.failed
		if t.err == nil && r.err != nil {
			t.err = r.err
		}
	}
}

func (t *tally) edits(r editResult) {
	t.attempted += r.ops
	t.failed += r.failed
	if t.err == nil {
		t.err = r.err
	}
}

// merged is a phase's results across connections.
type merged struct {
	lat  []time.Duration
	ops  int
	wall time.Duration
}

func merge(rs []loopResult) merged {
	var m merged
	for _, r := range rs {
		m.lat = append(m.lat, r.lat...)
		m.ops += r.ops
		m.wall = max(m.wall, r.wall)
	}
	return m
}

func (m merged) rate() float64 { return float64(m.ops) / m.wall.Seconds() }

// run sets the workload up setupRuns times, measures the last set-up
// for the window and returns the report.
func run(w workload, o options, table io.Writer) (*report, error) {
	p := w.plan(o.seed)
	reqs := w.requests(p, o.seed)
	var (
		tp *tap
		tr *tracer
	)
	runs := setupRuns
	if o.trace {
		tp, tr, runs = &tap{}, newTracer(), 1
	}
	goroutines := runtime.NumGoroutine()
	var (
		e             *env
		setups, heaps []float64
	)
	for i := 0; i < runs; i++ {
		if e != nil {
			e.close()
			settle(goroutines)
		}
		var (
			d   time.Duration
			h   float64
			err error
		)
		if e, d, h, err = setup(w, p, o.seed, tp); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups, heaps = append(setups, d.Seconds()), append(heaps, h)
	}
	if w.readFromReplica {
		if err := expectFromPrimary(e, reqs); err != nil {
			e.close()
			return nil, err
		}
	}

	var (
		t       tally
		metrics map[string]float64
		err     error
	)
	if o.trace {
		metrics, err = traced(w, e, reqs, o, tp, tr, &t, table)
	} else {
		metrics = measure(w, e, reqs, o, &t)
	}
	e.close()
	if err != nil {
		return nil, err
	}
	if o.trace {
		root := tr.begin(0, "bulk.replay")
		bulk, err := buildReplay(p, tr, root)
		tr.finish(root)
		if err != nil {
			return nil, fmt.Errorf("bulk replay: %w", err)
		}
		for k, v := range bulk {
			metrics[k] = v
		}
	}
	metrics["load.timer_late_us"] = us(timerLateness(200))
	metrics["setup_s"], metrics["heap_b_per_node"] = median(setups), median(heaps)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	metrics["peak_rss_mb"] = rss

	defs := endToEnd
	if o.trace {
		defs = perLayer
		if err := tr.write(o.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(table, "spans: %d written to %s\n", len(tr.spans), o.spans)
	}
	rep := &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: make(map[string]metric)}
	fmt.Fprintf(table, "workload %s seed %d window %s trace %v\n", w.name, o.seed, o.window, o.trace)
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(table, "  %-28s %14.4f %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(table, "  %-28s %14d\n  %-28s %14d\n", "ops", t.attempted, "failed", t.failed)
	if !o.trace {
		fmt.Fprintf(table, "  %-28s %14.4f us\n", "load.timer_late_us", metrics["load.timer_late_us"])
	}
	if t.err != nil {
		fmt.Fprintln(os.Stderr, "secbench: first failure:", t.err)
	}
	return rep, nil
}

// rounds is the number of measured rounds in an untraced run. Each
// round is a one-in-flight sub-window (70%) followed by a pipelined one
// (30%), so every metric samples the whole run and a burst of noise
// from other tenants of a shared host moves a few rounds, not the
// result.
const rounds = 20

// measure runs the untraced schedule: one warm-up round, then the
// measured rounds. Rates pool every round. The one-in-flight p50 and
// p99 are the medians of the per-round p50s and p99s. On edit-churn the
// admin edit loop runs beside the one-in-flight reader, its edits are
// pooled over the rounds, and the pipelined sub-windows read alone.
func measure(w workload, e *env, reqs [][]request, o options, t *tally) map[string]float64 {
	round := o.window / (rounds + 1)
	oneD, pipeD := round*7/10, round*3/10
	var (
		p50s, p99s []float64
		one, pipe  merged
		ed         editResult
	)
	for i := -1; i < rounds; i++ {
		var rs []loopResult
		if w.churn {
			rs = churnPhase(e, reqs, oneD, &ed, nil, 0)
		} else {
			rs = oneInFlight(w, e, reqs, oneD, false)
		}
		ps := readPhase(e.conns, reqs, pipeDepth, pipeD, false)
		t.reads(rs)
		t.reads(ps)
		if i < 0 { // warm-up
			t.edits(ed)
			ed = editResult{}
			continue
		}
		r, p := merge(rs), merge(ps)
		p50s, p99s = append(p50s, us(pct(r.lat, 50))), append(p99s, us(pct(r.lat, 99)))
		one.ops, one.wall = one.ops+r.ops, one.wall+r.wall
		pipe.ops, pipe.wall = pipe.ops+p.ops, pipe.wall+p.wall
	}
	m := map[string]float64{"pipe_ops_s": pipe.rate()}
	if w.churn {
		t.edits(ed)
		m["op_p50_us"], m["op_p99_us"] = us(pct(ed.vis, 50)), us(pct(ed.vis, 99))
		m["ops_s"] = float64(ed.ops) / ed.wall.Seconds()
	} else {
		m["op_p50_us"], m["op_p99_us"], m["ops_s"] = median(p50s), median(p99s), one.rate()
	}
	return m
}

func median(v []float64) float64 {
	slices.Sort(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

// oneInFlight runs a one-in-flight phase for d on the first load
// connection alone, held to one P unless it reads beside the edit loop
// (see pin).
func oneInFlight(w workload, e *env, reqs [][]request, d time.Duration, traced bool) []loopResult {
	defer w.pin()()
	return readPhase(e.conns[:1], reqs, 1, d, traced)
}

// pin holds the Go scheduler to one P and returns the function that
// restores it. The load generator and the servers share this process:
// on two Ps the client and server goroutines of a one-in-flight request
// either hand off on one P (~9 µs) or wake each other across CPUs
// (~15 µs), and the mix of the two drifts from run to run. On one P
// every request takes the same hand-off. edit-churn's reader runs beside
// the edit loop, which keeps every P.
func (w workload) pin() (restore func()) {
	if w.churn {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// readPhase drives the connections concurrently, each on its own
// goroutine, with depth requests in flight, for d. Connection c reads
// reqs[c].
func readPhase(conns []*client, reqs [][]request, depth int, d time.Duration, traced bool) []loopResult {
	until := time.Now().Add(d)
	out := make([]loopResult, len(conns))
	var wg sync.WaitGroup
	for c, cl := range conns {
		wg.Add(1)
		go func(c int, cl *client) {
			defer wg.Done()
			if depth == 1 {
				out[c] = cl.closedLoop(reqs[c], until, traced, checkVerdict)
			} else {
				out[c] = cl.pipelined(reqs[c], depth, until)
			}
		}(c, cl)
	}
	wg.Wait()
	return out
}

// churnPhase runs the admin edit loop on its own goroutine, adding to
// ed, beside a one-in-flight reader for d.
func churnPhase(e *env, reqs [][]request, d time.Duration, ed *editResult, tr *tracer, parent int64) []loopResult {
	until := time.Now().Add(d)
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.ed.loop(until, ed, tr, parent)
	}()
	rd := readPhase(e.conns[:1], reqs, 1, time.Until(until), false)
	<-done
	return rd
}

// settle waits until the goroutines of a closed set-up have exited, so
// the next set-up's heap reading starts from the same baseline.
func settle(base int) {
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}
