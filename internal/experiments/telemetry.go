package experiments

import (
	"fmt"

	"secext"
	"secext/internal/telemetry"
)

// checkWorld builds a quiet world (audit off) with one principal and
// one readable file for check-latency experiments, in a telemetry mode
// (telemetry.ModeSampled is the default) and with the decision cache
// optionally disabled for cached-vs-uncached comparisons.
func checkWorld(mode telemetry.Mode, disableCache bool) (*secext.World, *secext.Context, error) {
	w, err := secext.NewWorld(secext.WorldOptions{
		Levels:               []string{"others", "organization", "local"},
		Categories:           []string{"dept-1", "dept-2"},
		DisableAudit:         true,
		DisableDecisionCache: disableCache,
		Telemetry:            secext.TelemetryOptions{Mode: mode},
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := w.Sys.AddPrincipal("alice", "organization:{dept-1}"); err != nil {
		return nil, nil, err
	}
	ctx, err := w.Sys.NewContext("alice")
	if err != nil {
		return nil, nil, err
	}
	open := secext.NewACL(secext.AllowEveryone(secext.Read | secext.Write | secext.WriteAppend))
	if err := w.FS.Create(ctx, "/fs/f", open, ctx.Class()); err != nil {
		return nil, nil, err
	}
	return w, ctx, nil
}

// E13 prices the telemetry subsystem: the same mediated data check as
// E1/E11, warm (cache hit) and uncached (full resolve+verify), under
// the four telemetry configurations —
//
//   - off: Telemetry is nil; the mediation path is exactly the pre-
//     telemetry code plus one never-taken nil branch per site.
//   - metrics: counters and sampled histograms, no trace retention.
//   - sampled (the default): metrics plus one retained trace per 256
//     mediations.
//   - full: every mediation traced — maximum forensics.
//
// The design target, asserted by TestE13DefaultWithinNoise, is that the
// default setting stays within noise of off on the warm path: unsampled
// mediations pay one uncontended atomic add (the per-kind decision
// counter, which doubles as the sampling clock — the warm path already
// pays an identical add for the cache hit counter) plus one inlined
// flag load, and read no clocks; only the 1-in-256 sampled requests pay
// for timestamps and span recording.
//
// The shadow divergence monitor rides the same sampler: a sampled
// uncached check also re-derives its verdict by the authoritative walk
// and compares it with the compiled fast path, so the uncached column
// of every row but off includes that comparison. After the
// uncached loop, "shadow checks" and "divergences" read the monitor's
// counters. Divergences must read 0 — a nonzero count on an honest
// epoch is a compiler bug, and the run fails.
//
// Measurement design: single shots are hostage to frequency drift, so
// each cell is the minimum over interleaved rounds (off, metrics,
// sampled, full, repeat), and the "spread" column reports each mode's
// own min-to-max variation across rounds — the noise band. The claim
// "the default is within noise" is checkable on the table: the
// sampled-vs-off delta is of the same order as the off row's spread.
func E13() Result {
	res := Result{ID: "E13",
		Title: "Telemetry ablation: mediated check cost by recording mode (min over interleaved rounds)"}
	t := &table{header: []string{
		"telemetry", "warm ns/op", "vs off", "spread", "uncached ns/op", "vs off", "traces sampled",
		"shadow checks", "divergences",
	}}

	modes := []telemetry.Mode{
		telemetry.ModeOff, telemetry.ModeMetrics, telemetry.ModeSampled, telemetry.ModeFull,
	}
	type cell struct {
		warm, warmMax, uncached float64
		tel                     *telemetry.Telemetry
		uncachedWorld           *secext.World
	}
	cells := make([]cell, len(modes))
	warmChecks := make([]func(n int), len(modes))
	uncachedChecks := make([]func(n int), len(modes))
	for i, mode := range modes {
		w, ctx, err := checkWorld(mode, false)
		if err != nil {
			res.Err = err
			return res
		}
		cells[i].tel = w.Telemetry()
		warmChecks[i] = func(n int) {
			for j := 0; j < n; j++ {
				if _, err := w.Sys.CheckData(ctx, "/fs/f", secext.Read); err != nil {
					panic(err)
				}
			}
		}
		warmChecks[i](1) // publish the cached verdict, then measure hits

		uw, uctx, err := checkWorld(mode, true)
		if err != nil {
			res.Err = err
			return res
		}
		cells[i].uncachedWorld = uw
		uncachedChecks[i] = func(n int) {
			for j := 0; j < n; j++ {
				if _, err := uw.Sys.CheckData(uctx, "/fs/f", secext.Read); err != nil {
					panic(err)
				}
			}
		}
	}

	// The monitor needs a compiled view to compare against; without one
	// the shadow columns would count a no-op.
	if !cells[len(modes)-1].uncachedWorld.Sys.Names().Current().Compiled() {
		res.Err = fmt.Errorf("E13: epoch not compiled; shadow monitor has nothing to check")
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
		c := cells[i]
		sampled := "-"
		if snap := c.tel.Snapshot(); snap.Mode != "off" {
			sampled = fmt.Sprintf("%d", snap.TracesSampled)
		}
		st := c.uncachedWorld.Sys.Names().Stats()
		if st.Divergences != 0 {
			res.Err = fmt.Errorf("E13: %d divergences on an honest epoch in mode %s",
				st.Divergences, mode)
			return res
		}
		t.add(mode.String(),
			ns(c.warm), overhead(cells[0].warm, c.warm),
			fmt.Sprintf("%.0f%%", (c.warmMax/c.warm-1)*100),
			ns(c.uncached), overhead(cells[0].uncached, c.uncached),
			sampled, fmt.Sprintf("%d", st.ShadowChecks), fmt.Sprintf("%d", st.Divergences))
	}

	res.setTable(t)
	return res
}
