package experiments

import (
	"strconv"

	"secext"
	"secext/internal/monitor"
	"secext/internal/monitor/auditguard"
	"secext/internal/monitor/dacguard"
	"secext/internal/monitor/macguard"
	"secext/internal/telemetry"
)

// pipelineStacks are the guard stacks the depth experiments sweep: the
// discretionary guard alone, the paper's default DAC+MAC layering, and
// the default plus two pure observers — the cheapest possible extra
// guards, so the depth-4 row isolates the per-guard dispatch cost of
// the pipeline itself rather than any particular policy's work.
func pipelineStacks() []struct {
	name   string
	guards []monitor.Guard
} {
	return []struct {
		name   string
		guards []monitor.Guard
	}{
		{"dac", []monitor.Guard{dacguard.New()}},
		{"dac+mac (default)", []monitor.Guard{dacguard.New(), macguard.New()}},
		{"dac+mac+2 observers", []monitor.Guard{
			dacguard.New(), macguard.New(),
			auditguard.New(nil, nil), auditguard.New(nil, nil),
		}},
	}
}

// E12 measures what the monitor refactor bought and what it costs: the
// same mediated data check as E1/E11 swept over pipeline depth 1, 2,
// and 4, uncached (every check runs the full resolve + guard stack) and
// warm (decision-cache hit). The warm column should be flat — a cache
// hit never runs the guards, so policy depth is free on the steady-
// state path; the uncached column prices each additional pure guard.
func E12() Result {
	res := Result{ID: "E12", Title: "Monitor pipeline depth: mediated check cost vs guard count"}
	t := &table{header: []string{"guard stack", "depth", "uncached ns/op", "warm ns/op"}}

	for _, st := range pipelineStacks() {
		uw, uctx, err := checkWorld(telemetry.ModeSampled, true)
		if err != nil {
			res.Err = err
			return res
		}
		uw.Sys.Names().SetPipeline(monitor.NewPipeline(st.guards...))
		uncached := measure(defaultMinDur, func(n int) {
			for i := 0; i < n; i++ {
				if _, err := uw.Sys.CheckData(uctx, "/fs/f", secext.Read); err != nil {
					panic(err)
				}
			}
		})

		cw, cctx, err := checkWorld(telemetry.ModeSampled, false)
		if err != nil {
			res.Err = err
			return res
		}
		cw.Sys.Names().SetPipeline(monitor.NewPipeline(st.guards...))
		if _, err := cw.Sys.CheckData(cctx, "/fs/f", secext.Read); err != nil {
			res.Err = err
			return res
		}
		warm := measure(defaultMinDur, func(n int) {
			for i := 0; i < n; i++ {
				if _, err := cw.Sys.CheckData(cctx, "/fs/f", secext.Read); err != nil {
					panic(err)
				}
			}
		})

		t.add(st.name, strconv.Itoa(len(st.guards)), ns(uncached), ns(warm))
	}
	res.setTable(t)
	return res
}
