package experiments

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"secext"
	"secext/internal/telemetry"
)

// measureParallel times fn with the iteration budget split across procs
// goroutines, mirroring the harness in bench_test.go: wall-clock over
// total operations, so the figure is throughput-style latency. Unlike
// testing.B's RunParallel it pins the exact goroutine count, which is
// what a contention experiment needs.
func measureParallel(minDur time.Duration, procs int, fn func(n int)) float64 {
	return measure(minDur, func(n int) {
		var wg sync.WaitGroup
		per, extra := n/procs, n%procs
		for g := 0; g < procs; g++ {
			k := per
			if g < extra {
				k++
			}
			if k == 0 {
				continue
			}
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				fn(k)
			}(k)
		}
		wg.Wait()
	})
}

// E11 characterizes the decision-cache fast path under contention. Four
// workloads run the same mediated data check at 1, 4, and 16 goroutines:
//
//   - uncached: the cache is disabled; every check resolves the path and
//     evaluates DAC+MAC against the pinned epoch (the pre-cache cost).
//   - cold: every check is preceded by a generation bump, so the cache
//     never hits — the fast path's worst case, measuring lookup+store
//     overhead on top of full mediation.
//   - warm: the steady state; every check is a lock-free, allocation-free
//     cache hit.
//   - storm: a background goroutine bumps the generation continuously
//     while checkers run — an adversarial revocation storm. Checks fall
//     back to full mediation whenever their entry's generation is stale,
//     so correctness costs throughput, never staleness.
//
// The speedup column is relative to the uncached workload at the same
// goroutine count. Neither path takes a lock (an uncached check pins the
// epoch with one atomic load), so the speedup prices the work a hit
// skips and should hold steady as goroutines are added.
func E11() Result {
	res := Result{ID: "E11", Title: "Decision-cache contention: uncached/cold/warm/storm mediated checks"}
	t := &table{header: []string{"workload", "goroutines", "ns/op", "speedup vs uncached"}}

	check := func(w *secext.World, ctx *secext.Context) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if _, err := w.Sys.CheckData(ctx, "/fs/f", secext.Read); err != nil {
					panic(err)
				}
			}
		}
	}
	speedup := func(base, v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1fx", base/v)
	}

	for _, procs := range []int{1, 4, 16} {
		g := strconv.Itoa(procs)

		uw, uctx, err := checkWorld(telemetry.ModeSampled, true)
		if err != nil {
			res.Err = err
			return res
		}
		uncached := measureParallel(defaultMinDur, procs, check(uw, uctx))
		t.add("uncached", g, ns(uncached), "1.0x")

		cw, cctx, err := checkWorld(telemetry.ModeSampled, false)
		if err != nil {
			res.Err = err
			return res
		}
		cache := cw.Sys.DecisionCache()
		if cache == nil {
			res.Err = fmt.Errorf("E11: decision cache unexpectedly disabled")
			return res
		}
		doCheck := check(cw, cctx)

		cold := measureParallel(defaultMinDur, procs, func(n int) {
			for i := 0; i < n; i++ {
				cw.Sys.Registry().Touch()
				doCheck(1)
			}
		})
		t.add("cold (invalidate each)", g, ns(cold), speedup(uncached, cold))

		doCheck(1) // publish the verdict once, then measure hits
		warm := measureParallel(defaultMinDur, procs, doCheck)
		t.add("warm (cache hit)", g, ns(warm), speedup(uncached, warm))

		stop := make(chan struct{})
		var storming sync.WaitGroup
		storming.Add(1)
		go func() {
			defer storming.Done()
			for {
				select {
				case <-stop:
					return
				default:
					cw.Sys.Registry().Touch()
					runtime.Gosched()
				}
			}
		}()
		storm := measureParallel(defaultMinDur, procs, doCheck)
		close(stop)
		storming.Wait()
		t.add("storm (concurrent invalidation)", g, ns(storm), speedup(uncached, storm))
	}

	res.setTable(t)
	return res
}
