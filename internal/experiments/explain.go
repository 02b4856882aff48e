package experiments

import (
	"fmt"

	"secext"
	"secext/internal/telemetry"
)

// E18 prices the decision-provenance machinery added for PR 8: the
// shadow divergence monitor that re-derives sampled verdicts by the
// authoritative walk and compares them with the compiled fast path.
//
// The monitor rides the telemetry sampler: only traced checks take the
// shadow comparison, so its cost model is E13's. On the warm path an
// unsampled mediation pays nothing new — the shadow code sits behind
// the same trace-selection branch the tracer already owns. Sampled
// uncached checks pay one extra fastCheck probe (an index lookup plus
// bitset tests) on top of the walk they were already tracing.
//
// Rows, per telemetry mode (off / sampled / full):
//
//   - warm: decision-cache hit — the everyday path; the claim under
//     test is that "sampled" (the production default, 1/256 traced)
//     stays inside the off row's noise band, same as E13.
//   - uncached: cache disabled — every check resolves and verifies,
//     and in sampled/full mode the traced fraction also shadow-walks.
//   - shadow checks / divergences: the monitor's own counters after
//     the uncached loop. Divergences must read 0 — a nonzero count on
//     an honest epoch is a compiler bug, and the run fails.
//
// TestE18SampledWithinNoise asserts the warm-path claim with a bound;
// the honest figures are this table.
func E18() Result {
	res := Result{ID: "E18",
		Title: "Decision provenance: shadow divergence monitor cost by telemetry mode (min over interleaved rounds)"}
	t := &table{header: []string{
		"telemetry", "warm ns/op", "vs off", "spread", "uncached ns/op", "vs off", "shadow checks", "divergences",
	}}

	modes := []telemetry.Mode{telemetry.ModeOff, telemetry.ModeSampled, telemetry.ModeFull}
	type cell struct {
		warm, warmMax, uncached float64
		shadow, diverged        uint64
	}
	cells := make([]cell, len(modes))
	warmChecks := make([]func(n int), len(modes))
	uncachedChecks := make([]func(n int), len(modes))
	uncachedWorlds := make([]*secext.World, len(modes))
	for i, mode := range modes {
		w, ctx, err := telWorld(mode, false)
		if err != nil {
			res.Err = err
			return res
		}
		warmChecks[i] = func(n int) {
			for j := 0; j < n; j++ {
				if _, err := w.Sys.CheckData(ctx, "/fs/f", secext.Read); err != nil {
					panic(err)
				}
			}
		}
		warmChecks[i](1) // publish the cached verdict, then measure hits

		uw, uctx, err := telWorld(mode, true)
		if err != nil {
			res.Err = err
			return res
		}
		uncachedWorlds[i] = uw
		uncachedChecks[i] = func(n int) {
			for j := 0; j < n; j++ {
				if _, err := uw.Sys.CheckData(uctx, "/fs/f", secext.Read); err != nil {
					panic(err)
				}
			}
		}
	}
	// The monitor needs a compiled view to compare against; without one
	// the table would price a no-op.
	if !uncachedWorlds[len(modes)-1].Sys.Names().Current().Compiled() {
		res.Err = fmt.Errorf("E18: epoch not compiled; shadow monitor has nothing to check")
		return res
	}

	const rounds = 5
	roundDur := defaultMinDur / 2
	for r := 0; r < rounds; r++ {
		for i := range modes {
			warm := measure(roundDur, warmChecks[i])
			if r == 0 || warm < cells[i].warm {
				cells[i].warm = warm
			}
			if warm > cells[i].warmMax {
				cells[i].warmMax = warm
			}
			uncached := measure(roundDur, uncachedChecks[i])
			if r == 0 || uncached < cells[i].uncached {
				cells[i].uncached = uncached
			}
		}
	}

	overhead := func(base, v float64) string {
		if base == 0 {
			return "-"
		}
		return fmt.Sprintf("%+.1f%%", (v/base-1)*100)
	}
	for i, mode := range modes {
		c := &cells[i]
		st := uncachedWorlds[i].Sys.Names().Stats()
		c.shadow, c.diverged = st.ShadowChecks, st.Divergences
		if c.diverged != 0 {
			res.Err = fmt.Errorf("E18: %d divergences on an honest epoch in mode %s",
				c.diverged, mode)
			return res
		}
		t.add(mode.String(),
			ns(c.warm), overhead(cells[0].warm, c.warm),
			fmt.Sprintf("%.0f%%", (c.warmMax/c.warm-1)*100),
			ns(c.uncached), overhead(cells[0].uncached, c.uncached),
			fmt.Sprintf("%d", c.shadow), fmt.Sprintf("%d", c.diverged))
	}

	res.setTable(t)
	return res
}
