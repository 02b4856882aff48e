package experiments

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"secext"
	"secext/internal/lattice"
	"secext/internal/names"
	"secext/internal/remote"
	"secext/internal/replica"
	"secext/internal/telemetry"
)

// replFleet is one E19 configuration: a primary serving replication
// over a real loopback TCP listener, plus n connected replicas.
type replFleet struct {
	w        *secext.World
	ctx      *secext.Context
	pub      *replica.Publisher
	srv      *remote.Server
	l        net.Listener
	reps     []*replica.Replica
	repCtxs  []*secext.Context
	aliceTok string
}

// newReplFleet builds a primary (the E13 check world), enables
// replication on it, and connects n replicas over loopback TCP, each
// bootstrapping from its own snapshot and catching up to the primary's
// current epoch.
func newReplFleet(n int) (*replFleet, error) {
	w, ctx, err := checkWorld(telemetry.ModeOff, false) // price mediation, not telemetry
	if err != nil {
		return nil, err
	}
	f := &replFleet{w: w, ctx: ctx}
	rtok, err := addReplicator(w)
	if err != nil {
		return nil, err
	}
	f.aliceTok, err = w.Sys.Registry().IssueToken("alice")
	if err != nil {
		return nil, err
	}
	f.srv = remote.NewServer(w.Sys)
	f.srv.PingInterval = 50 * time.Millisecond
	f.pub = replica.NewPublisher(w.Sys)
	f.srv.SetPublisher(f.pub)
	f.l, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go f.srv.Serve(f.l)
	for i := 0; i < n; i++ {
		r, err := replica.Connect(replica.Options{
			Addr:       f.l.Addr().String(),
			Token:      rtok,
			StaleAfter: 10 * time.Second,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.reps = append(f.reps, r)
		// The primary's tokens authenticate on the replica: the token
		// secret rode the snapshot envelope.
		rctx, err := r.System().NewContextFromToken(f.aliceTok)
		if err != nil {
			f.close()
			return nil, err
		}
		f.repCtxs = append(f.repCtxs, rctx)
	}
	if err := f.catchUp(5 * time.Second); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// addReplicator registers the replicator principal with administrate
// on "/", as secextd -serve-replication does, and returns its token.
func addReplicator(w *secext.World) (string, error) {
	if _, err := w.Sys.AddPrincipal("replicator", "others"); err != nil {
		return "", err
	}
	rootACL, err := w.Sys.Names().ACLOf("/")
	if err != nil {
		return "", err
	}
	rootACL.Add(secext.Allow("replicator", secext.Administrate))
	if err := w.Sys.Names().SetACLUnchecked("/", rootACL); err != nil {
		return "", err
	}
	return w.Sys.Registry().IssueToken("replicator")
}

// catchUp waits until every replica applied the primary's current
// epoch.
func (f *replFleet) catchUp(timeout time.Duration) error {
	target := f.w.Sys.Names().Version()
	deadline := time.Now().Add(timeout)
	for {
		behind := false
		for _, r := range f.reps {
			if r.AppliedVersion() < target {
				behind = true
				break
			}
		}
		if !behind {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not reach epoch v%d within %s", target, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

func (f *replFleet) close() {
	for _, r := range f.reps {
		r.Close()
	}
	f.pub.Close()
	f.srv.Close()
	f.l.Close()
}

// throughput runs one checking goroutine per replica for the window
// and returns aggregate checks/sec across the fleet.
func (f *replFleet) throughput(window time.Duration) (float64, error) {
	var stop atomic.Bool
	var total atomic.Uint64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for i := range f.reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sys, ctx := f.reps[i].System(), f.repCtxs[i]
			n := uint64(0)
			for !stop.Load() {
				if _, err := sys.CheckData(ctx, "/fs/f", secext.Read); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					break
				}
				n++
			}
			total.Add(n)
		}(i)
	}
	start := time.Now()
	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	if e := firstErr.Load(); e != nil {
		return 0, *e
	}
	return float64(total.Load()) / elapsed.Seconds(), nil
}

// burst drives k ACL mutations through the primary (each one epoch,
// each a real delta on /fs/f), then raises the revocation barrier for
// the final epoch and returns the barrier wall time.
func (f *replFleet) burst(k int) (time.Duration, error) {
	a := secext.NewACL(secext.AllowEveryone(secext.Read | secext.Write | secext.WriteAppend))
	b := secext.NewACL(secext.AllowEveryone(secext.Read))
	var v uint64
	for i := 0; i < k; i++ {
		next := a
		if i%2 == 0 {
			next = b
		}
		nv, err := f.w.Sys.Names().Apply(nil, lattice.Class{}, names.SetACL("/fs/f", next))
		if err != nil {
			return 0, err
		}
		v = nv
	}
	start := time.Now()
	if err := f.pub.Barrier(v, 10*time.Second); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// E19 prices the replica fleet added for PR 9: policy epochs streamed
// to replica mediators over real loopback TCP, each answering mediated
// checks from its own locally rebuilt epoch.
//
// Rows, one per fleet size {1, 2, 4}:
//
//   - aggregate checks/s: total warm mediations per second across the
//     fleet, one checking goroutine per replica. Honest caveat: this
//     host serializes every replica onto the same CPUs, so the column
//     measures that replicas add mediation capacity without contending
//     on any shared lock (flat-to-rising here means real scaling on
//     real hosts, where each replica owns a machine); it is NOT a
//     multi-host throughput claim.
//   - barrier ms after a 64-epoch burst: wall time for the fleet-wide
//     revocation barrier — every replica acknowledging the final epoch
//     of the burst. This is the price of "revocation is synchronous"
//     at fleet scale, paid only by revokers who ask for it.
//   - snapshot B and delta B: average transfer cost per bootstrap (the
//     framed snapshot, SNAP-SECRET line included) vs per streamed
//     epoch, from the publisher's byte counters. Deltas
//     exist because re-snapshotting per epoch would make replication
//     cost O(tree) per mutation; the ratio column is the economy.
func E19() Result {
	res := Result{ID: "E19",
		Title: "Replica fleet: aggregate mediation throughput, revocation barrier, and transfer cost (loopback TCP)"}
	t := &table{header: []string{
		"replicas", "aggregate checks/s", "per-replica", "barrier ms (64-epoch burst)",
		"snapshot B (avg)", "delta B (avg)", "delta/snapshot",
	}}
	const burstEpochs = 64
	for _, n := range []int{1, 2, 4} {
		f, err := newReplFleet(n)
		if err != nil {
			res.Err = fmt.Errorf("E19: fleet of %d: %w", n, err)
			return res
		}
		// Warm each replica's decision cache before the window.
		for i, r := range f.reps {
			if _, err := r.System().CheckData(f.repCtxs[i], "/fs/f", secext.Read); err != nil {
				res.Err = fmt.Errorf("E19: warmup on replica %d: %w", i, err)
				f.close()
				return res
			}
		}
		agg, err := f.throughput(50 * time.Millisecond)
		if err != nil {
			res.Err = fmt.Errorf("E19: fleet of %d: %w", n, err)
			f.close()
			return res
		}
		barrier, err := f.burst(burstEpochs)
		if err != nil {
			res.Err = fmt.Errorf("E19: fleet of %d burst: %w", n, err)
			f.close()
			return res
		}
		st := f.pub.Stats()
		f.close()
		if st.Snapshots == 0 || st.Deltas == 0 {
			res.Err = fmt.Errorf("E19: fleet of %d sent %d snapshots, %d deltas",
				n, st.Snapshots, st.Deltas)
			return res
		}
		snapAvg := float64(st.SnapshotBytes) / float64(st.Snapshots)
		deltaAvg := float64(st.DeltaBytes) / float64(st.Deltas)
		t.add(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", agg),
			fmt.Sprintf("%.0f", agg/float64(n)),
			fmt.Sprintf("%.2f", float64(barrier.Microseconds())/1e3),
			fmt.Sprintf("%.0f", snapAvg),
			fmt.Sprintf("%.0f", deltaAvg),
			fmt.Sprintf("%.3f", deltaAvg/snapAvg))
	}
	res.setTable(t)
	return res
}
