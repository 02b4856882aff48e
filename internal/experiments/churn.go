package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"secext"
	"secext/internal/lattice"
	"secext/internal/load"
	"secext/internal/names"
	"secext/internal/principal"
	"secext/internal/telemetry"
)

// churnWorld builds the E16 fixture: 64 member principals plus a
// reader (alice) whose access to /fs/churn flows through the "churn"
// group, so every membership mutation is decision-relevant policy state
// that must reach the epoch. Audit is off so rows price the write path
// itself.
func churnWorld() (*secext.World, *secext.Context, []string, error) {
	w, err := secext.NewWorld(secext.WorldOptions{
		Levels:       []string{"others", "organization", "local"},
		Categories:   []string{"dept-1", "dept-2"},
		DisableAudit: true,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	class, err := w.Sys.ParseClass("organization:{dept-1}")
	if err != nil {
		return nil, nil, nil, err
	}
	edits := []principal.Edit{principal.AddGroup("churn"), principal.AddPrincipal("alice", class), principal.AddMember("churn", "alice")}
	members := make([]string, 64)
	for i := range members {
		members[i] = fmt.Sprintf("p%d", i)
		edits = append(edits, principal.AddPrincipal(members[i], class))
	}
	if _, err := w.Sys.Registry().Apply(edits...); err != nil {
		return nil, nil, nil, err
	}
	ctx, err := w.Sys.NewContext("alice")
	if err != nil {
		return nil, nil, nil, err
	}
	grant := secext.NewACL(secext.AllowGroup("churn", secext.Read))
	if err := w.FS.Create(ctx, "/fs/churn", grant, ctx.Class()); err != nil {
		return nil, nil, nil, err
	}
	return w, ctx, members, nil
}

// E16 prices write-path scaling under sustained policy churn:
// multi-edit Registry.Apply against per-edit Apply calls.
//
// The single-mutation row prices one add+remove pair: each Apply
// derives its registry version from the last, recomputing only the
// touched principal's bitset row.
//
// Bulk rows are the headline: installing and revoking 64 memberships
// as 64 per-edit Apply calls (64 freezes, 64 epoch publications each
// way) versus one 64-edit Registry.Apply each way (one freeze, one
// publication). The ratio is the write-tax reduction of carrying 64
// edits in one call.
//
// The sustained-churn row runs mutators and readers concurrently:
// mutations flow while readers hammer the warm cached check, and the
// publish-latency distribution comes from the publisher's own
// histogram. Every mutation is one publication; the row is a liveness
// and ordering smoke under churn, not a parallel-speedup measurement.
//
// The at-scale rows price single registry transitions at secbench's
// check-allow population (see e16AtScale).
func E16() Result {
	res := Result{ID: "E16", Title: "Write-path scaling: multi-edit Apply under churn"}
	t := &table{header: []string{"operation", "impl", "ns/op", "ratio"}}
	ratio := func(slow, fast float64) string {
		if fast == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1fx", slow/fast)
	}

	w, ctx, members, err := churnWorld()
	if err != nil {
		res.Err = err
		return res
	}
	reg := w.Sys.Registry()
	ns16 := w.Sys.Names()

	// Single membership mutation.
	single := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := reg.Apply(principal.AddMember("churn", "p0")); err != nil {
				panic(err)
			}
			if _, err := reg.Apply(principal.RemoveMember("churn", "p0")); err != nil {
				panic(err)
			}
		}
	})
	t.add("single add+remove", "Registry.Apply (2 publishes)", ns(single), "-")

	// Bulk churn: 64 adds + 64 removes, per-edit Apply calls vs one
	// 64-edit Apply each way.
	perEdit := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			for _, m := range members {
				if _, err := reg.Apply(principal.AddMember("churn", m)); err != nil {
					panic(err)
				}
			}
			for _, m := range members {
				if _, err := reg.Apply(principal.RemoveMember("churn", m)); err != nil {
					panic(err)
				}
			}
		}
	})
	var grant, revoke []principal.Edit
	for _, m := range members {
		grant = append(grant, principal.AddMember("churn", m))
		revoke = append(revoke, principal.RemoveMember("churn", m))
	}
	bulk := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := reg.Apply(grant...); err != nil {
				panic(err)
			}
			if _, err := reg.Apply(revoke...); err != nil {
				panic(err)
			}
		}
	})
	t.add("64-member add+remove", "per-edit Apply (128 publishes)", ns(perEdit), ratio(perEdit, bulk))
	t.add("64-member add+remove", "64-edit Apply (2 publishes)", ns(bulk), "1.0x")

	// Sustained churn: mutators add/remove while readers hammer the warm
	// cached check. Reported as per-mutation latency; the publish-latency
	// row below comes from the publisher's histogram over this whole
	// experiment.
	before := ns16.Stats()
	var mutations atomic.Uint64
	var readerNS atomic.Uint64
	var readerOps atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				if _, err := w.Sys.CheckData(ctx, "/fs/churn", secext.Read); err != nil {
					panic(err)
				}
				readerNS.Add(uint64(time.Since(start).Nanoseconds()))
				readerOps.Add(1)
			}
		}()
	}
	churnDur := 150 * time.Millisecond
	churnStart := time.Now()
	var mwg sync.WaitGroup
	for m := 0; m < 2; m++ {
		mwg.Add(1)
		go func(m int) {
			defer mwg.Done()
			member := members[m]
			for time.Since(churnStart) < churnDur {
				if _, err := reg.Apply(principal.AddMember("churn", member)); err != nil {
					panic(err)
				}
				if _, err := reg.Apply(principal.RemoveMember("churn", member)); err != nil {
					panic(err)
				}
				mutations.Add(2)
			}
		}(m)
	}
	mwg.Wait()
	elapsed := time.Since(churnStart)
	close(stop)
	wg.Wait()

	mutPerSec := float64(mutations.Load()) / elapsed.Seconds()
	t.add("sustained churn", "mutations under readers",
		ns(float64(elapsed.Nanoseconds())/float64(mutations.Load())),
		fmt.Sprintf("%.0f muts/s", mutPerSec))
	if ops := readerOps.Load(); ops > 0 {
		t.add("reader under churn", "warm cached check",
			ns(float64(readerNS.Load())/float64(ops)), "-")
	}

	st := ns16.Stats()
	if st.FlushLatency.Count > before.FlushLatency.Count {
		t.add("publish latency", "p50/p95/p99",
			fmt.Sprintf("%s / %s / %s", ns(st.FlushLatency.P50), ns(st.FlushLatency.P95), ns(st.FlushLatency.P99)),
			fmt.Sprintf("%d publishes", st.FlushLatency.Count))
	}

	// Quiescent warm check: churn over, the read path must sit back in
	// the E11/E13/E17 warm band.
	warmFn := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := w.Sys.CheckData(ctx, "/fs/churn", secext.Read); err != nil {
				panic(err)
			}
		}
	}
	warmFn(1)
	warm := measure(defaultMinDur, warmFn)
	t.add("quiescent warm check", "epoch version key", ns(warm), "-")

	// Sanity: the world ends consistent and alice still has her access.
	if _, err := w.Sys.CheckData(ctx, "/fs/churn", secext.Read); err != nil {
		res.Err = fmt.Errorf("E16: post-churn check failed: %w", err)
		return res
	}
	if err := e16AtScale(t); err != nil {
		res.Err = fmt.Errorf("E16: at scale: %w", err)
		return res
	}
	res.setTable(t)
	return res
}

// e16AtScale prices one transition at secbench's check-allow
// population: 100k nodes, 10k principals, 312 groups, a 1,562-ACL pool
// that names every group. A membership toggle is one Registry.Apply
// adding (or removing) a principal to a group it is not in, timed from
// the call until the epoch carrying it is published (p50 and p99 over
// 400 calls); its replication delta is DiffEpochs between the two
// epochs. A leaf ACL edit is one names.Apply setting a pool ACL on a
// leaf (see leafEdits; p50 and p99 over 3,000 calls). A new principal
// is one Registry.Apply registering a principal no ACL names, a new
// group one registering a group no ACL names, and a subgroup edge one
// nesting a populated group in another or undoing that (median of 20
// each, 40 for edges). Last, the registry grows to 10^5 principals in
// one Apply and a new principal is priced there (median of 20).
func e16AtScale(t *table) error {
	w, _, err := checkWorld(telemetry.ModeOff, false)
	if err != nil {
		return err
	}
	cfg := load.Defaults()
	cfg.Nodes, cfg.Principals, cfg.Groups, cfg.ACLPool = 100_000, 10_000, 312, 100_000/64
	plan := load.NewPlan(cfg)
	if _, err := load.Populate(w.Sys, plan); err != nil {
		return err
	}
	reg, srv := w.Sys.Registry(), w.Sys.Names()
	runtime.GC()
	var toggles, diffs []time.Duration
	for i := 0; i < 200; i++ {
		member, group := load.PrincipalName(i), load.GroupName((i+1)%plan.Groups)
		for _, e := range []principal.Edit{principal.AddMember(group, member), principal.RemoveMember(group, member)} {
			prev := srv.Current()
			t0 := time.Now()
			if _, err := reg.Apply(e); err != nil {
				return err
			}
			toggles = append(toggles, time.Since(t0))
			t0 = time.Now()
			if _, err := names.DiffEpochs(prev, srv.Current()); err != nil {
				return err
			}
			diffs = append(diffs, time.Since(t0))
		}
	}
	bottom, err := w.Sys.Lattice().Bottom()
	if err != nil {
		return err
	}
	edits, err := leafEdits(srv, plan, bottom, 3000)
	if err != nil {
		return err
	}
	var adds, newGroups, edges []time.Duration
	for i := 0; i < 20; i++ {
		sub, group := load.GroupName(i), load.GroupName(i+1)
		for _, c := range []struct {
			e  principal.Edit
			ds *[]time.Duration
		}{
			{principal.AddPrincipal(fmt.Sprintf("late%d", i), bottom), &adds},
			{principal.AddGroup(fmt.Sprintf("fresh%d", i)), &newGroups},
			{principal.AddMember(group, sub), &edges},
			{principal.RemoveMember(group, sub), &edges},
		} {
			t0 := time.Now()
			if _, err := reg.Apply(c.e); err != nil {
				return err
			}
			*c.ds = append(*c.ds, time.Since(t0))
		}
	}
	scale := "check-allow scale, p50 / p99"
	t.add("membership toggle", "Registry.Apply, "+scale,
		fmt.Sprintf("%s / %s", ns(pct(toggles, 0.5)), ns(pct(toggles, 0.99))), fmt.Sprintf("%d calls", len(toggles)))
	t.add("toggle delta", "DiffEpochs, "+scale,
		fmt.Sprintf("%s / %s", ns(pct(diffs, 0.5)), ns(pct(diffs, 0.99))), fmt.Sprintf("%d deltas", len(diffs)))
	t.add("leaf ACL edit", "names.Apply, "+scale,
		fmt.Sprintf("%s / %s", ns(pct(edits, 0.5)), ns(pct(edits, 0.99))), fmt.Sprintf("%d calls", len(edits)))
	for _, row := range []struct {
		op string
		ds []time.Duration
	}{{"new principal", adds}, {"new group", newGroups}, {"subgroup edge", edges}} {
		t.add(row.op, "Registry.Apply, check-allow scale, p50",
			ns(pct(row.ds, 0.5)), fmt.Sprintf("%d calls", len(row.ds)))
	}
	const grown = 100_000
	var grow []principal.Edit
	for i := reg.Freeze().NumPrincipalIDs(); i < grown; i++ {
		grow = append(grow, principal.AddPrincipal(fmt.Sprintf("bulk%06d", i), bottom))
	}
	if _, err := reg.Apply(grow...); err != nil {
		return err
	}
	adds, err = newPrincipals(reg, bottom, "grown", 20)
	if err != nil {
		return err
	}
	t.add("new principal", "Registry.Apply, 10^5 principals, p50",
		ns(pct(adds, 0.5)), fmt.Sprintf("%d calls", len(adds)))
	return nil
}

// pct returns the q-quantile of ds in nanoseconds.
func pct(ds []time.Duration, q float64) float64 {
	s := slices.Clone(ds)
	slices.Sort(s)
	return float64(s[int(q*float64(len(s)-1))].Nanoseconds())
}

// leafEdits times n unchecked names.Apply calls, each setting a pool
// ACL on a leaf of p, both drawn by a generator seeded with p's seed,
// from the call until the epoch carrying the edit is published.
func leafEdits(srv *names.Server, p load.Plan, class lattice.Class, n int) ([]time.Duration, error) {
	rng := rand.New(rand.NewSource(p.Seed))
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		e := names.SetACL(p.LeafPath(rng.Intn(p.Leaves)), p.ACLPoolEntry(rng.Intn(p.ACLPool)))
		t0 := time.Now()
		if _, err := srv.Apply(nil, class, e); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t0))
	}
	return ds, nil
}

// newPrincipals times n Registry.Apply calls, each registering a new
// principal no ACL names, named prefix0, prefix1, ...
func newPrincipals(reg *principal.Registry, class lattice.Class, prefix string, n int) ([]time.Duration, error) {
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		e := principal.AddPrincipal(fmt.Sprintf("%s%d", prefix, i), class)
		t0 := time.Now()
		if _, err := reg.Apply(e); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t0))
	}
	return ds, nil
}
