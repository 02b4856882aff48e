package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"secext/internal/load"
)

// tiny shrinks a workload so all four run, untraced and traced, in a
// few seconds.
func tiny(w workload) workload {
	w.nodes, w.principals, w.groups = 2_000, 200, 8
	return w
}

// TestWorkloadsEmitEveryMetric runs every workload at a tiny scale and
// checks that each metric BENCHMARK.json names is emitted, finite, and
// that no operation failed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{seed: 3, window: 200 * time.Millisecond, trace: traced, spans: filepath.Join(t.TempDir(), "spans.jsonl")}
			rep, err := run(tiny(w), o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if rep.Failed != 0 || !rep.Correct || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d correct %v", w.name, traced, rep.Attempted, rep.Failed, rep.Correct)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := rep.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.name, traced, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", w.name, traced, d.Name, got.Unit, d.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, traced, d.Name, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(o.spans); err != nil {
					t.Errorf("%s: spans not written: %v", w.name, err)
				}
			}
		}
	}
}

// TestPlanVerdictsMatchTheSystem checks the verdicts the generator
// derives from the plan against the system's own authoritative check.
func TestPlanVerdictsMatchTheSystem(t *testing.T) {
	for _, w := range workloads {
		w = tiny(w)
		p := w.plan(5)
		e, _, _, err := setup(w, p, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		sys := e.world.Sys
		ep := sys.Names().Current()
		for c, rs := range w.requests(p, 5) {
			ctx, err := sys.NewContext(load.PrincipalName(c))
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range rs[:4096] {
				_, err := sys.Names().CheckAccessIn(ep, ctx, ctx.Class(), q.path, q.modes)
				if (err == nil) != q.allow {
					t.Errorf("%s: CHECK %s %v by p%d: system err=%v, plan says allowed=%v", w.name, q.path, q.modes, c, err, q.allow)
				}
			}
		}
		e.close()
	}
}
