package experiments

import (
	"fmt"
	"sync"

	"secext"
	"secext/internal/principal"
)

// epochWorld builds a world where alice's only right to /fs/f flows
// through a nested group chain (alice ∈ g0 ∈ g1 ∈ g2 ∈ g3, ACL grants
// g3): the decision path must answer a transitive membership question,
// which is exactly the state the epoch refactor froze. Audit is off so
// the rows price the decision itself.
func epochWorld(disableCache bool) (*secext.World, *secext.Context, error) {
	w, err := secext.NewWorld(secext.WorldOptions{
		Levels:               []string{"others", "organization", "local"},
		Categories:           []string{"dept-1", "dept-2"},
		DisableAudit:         true,
		DisableDecisionCache: disableCache,
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := w.Sys.AddPrincipal("alice", "organization:{dept-1}"); err != nil {
		return nil, nil, err
	}
	reg := w.Sys.Registry()
	for i := 0; i < 4; i++ {
		if _, err := reg.Apply(principal.AddGroup(fmt.Sprintf("g%d", i))); err != nil {
			return nil, nil, err
		}
	}
	if _, err := reg.Apply(principal.AddMember("g0", "alice")); err != nil {
		return nil, nil, err
	}
	for i := 1; i < 4; i++ {
		if _, err := reg.Apply(principal.AddMember(fmt.Sprintf("g%d", i), fmt.Sprintf("g%d", i-1))); err != nil {
			return nil, nil, err
		}
	}
	ctx, err := w.Sys.NewContext("alice")
	if err != nil {
		return nil, nil, err
	}
	grant := secext.NewACL(secext.AllowGroup("g3", secext.Read|secext.Write|secext.WriteAppend))
	if err := w.FS.Create(ctx, "/fs/f", grant, ctx.Class()); err != nil {
		return nil, nil, err
	}
	return w, ctx, nil
}

// lockedMembership is the pre-epoch registry architecture as a shim: a
// mutable up-edge graph guarded by an RWMutex, answering membership by
// walking the graph under the read lock on every query. The epoch
// refactor replaced this with a transitive closure precomputed at
// freeze time and read with zero locks.
type lockedMembership struct {
	mu sync.RWMutex
	// up maps member -> groups it belongs to directly.
	up map[string][]string
}

func (m *lockedMembership) add(member, group string) {
	m.mu.Lock()
	m.up[member] = append(m.up[member], group)
	m.mu.Unlock()
}

func (m *lockedMembership) remove(member, group string) {
	m.mu.Lock()
	out := m.up[member][:0]
	for _, g := range m.up[member] {
		if g != group {
			out = append(out, g)
		}
	}
	m.up[member] = out
	m.mu.Unlock()
}

func (m *lockedMembership) IsMember(who, group string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	seen := map[string]bool{}
	stack := append([]string(nil), m.up[who]...)
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if g == group {
			return true
		}
		if seen[g] {
			continue
		}
		seen[g] = true
		stack = append(stack, m.up[g]...)
	}
	return false
}

// E15 prices the policy-epoch refactor on both sides of the trade.
//
// Reads: an uncached mediated check whose DAC verdict needs a
// transitive group-membership answer, on the epoch path (one atomic
// load pins tree + lattice + frozen membership closure; zero locks)
// versus an RWMutex shim reproducing the pre-epoch read-side
// synchronization; plus the bare membership query, frozen-closure
// versus locked-graph-walk.
//
// Writes: the honest cost shift. A membership mutation used to be a map
// edit under a lock; it now rebuilds the transitive closure and
// publishes a fresh epoch (killing every cached verdict), so the
// mutation row is expected to be markedly SLOWER than its shim — that
// is the price paid for the lock-free, staleness-proof read side, and
// the design bets mutations are rare relative to decisions.
//
// The warm row records the cached fast path in the same world: the
// refactor must leave cache hits inside the E11/E13 warm band (the
// cache key changed from (gen, stack-gen, ...) to the epoch version
// alone, which if anything shortens the probe).
//
// On a single-vCPU host the lock-free and locked READ rows are close:
// an uncontended RWMutex is cheap, and these figures are recorded
// without cross-core contention. The epoch's read-side win under
// parallel load is E14's subject; E15's single-goroutine rows isolate
// per-operation cost, not scaling.
func E15() Result {
	res := Result{ID: "E15", Title: "Policy epochs: frozen vs locked decisions, and the mutation-publish price"}
	t := &table{header: []string{"operation", "impl", "ns/op", "locked/frozen"}}
	ratio := func(locked, frozen float64) string {
		if frozen == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1fx", locked/frozen)
	}

	// Uncached mediated check through the nested-group ACL.
	uw, uctx, err := epochWorld(true)
	if err != nil {
		res.Err = err
		return res
	}
	check := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := uw.Sys.CheckData(uctx, "/fs/f", secext.Read); err != nil {
				panic(err)
			}
		}
	}
	frozenCheck := measure(defaultMinDur, check)
	var mu sync.RWMutex
	lockedCheck := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			mu.RLock()
			_, err := uw.Sys.CheckData(uctx, "/fs/f", secext.Read)
			mu.RUnlock()
			if err != nil {
				panic(err)
			}
		}
	})
	t.add("uncached group check", "epoch (lock-free)", ns(frozenCheck), "1.0x")
	t.add("uncached group check", "rwmutex shim", ns(lockedCheck), ratio(lockedCheck, frozenCheck))

	// Bare transitive membership query: frozen closure vs locked walk.
	froz := uw.Sys.Names().Current().Registry()
	if froz == nil || !froz.IsMember("alice", "g3") {
		res.Err = fmt.Errorf("E15: epoch registry missing transitive membership")
		return res
	}
	frozenMember := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			if !froz.IsMember("alice", "g3") {
				panic("membership lost")
			}
		}
	})
	walk := &lockedMembership{up: map[string][]string{
		"alice": {"g0"}, "g0": {"g1"}, "g1": {"g2"}, "g2": {"g3"},
	}}
	lockedMember := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			if !walk.IsMember("alice", "g3") {
				panic("membership lost")
			}
		}
	})
	t.add("membership query", "frozen closure", ns(frozenMember), "1.0x")
	t.add("membership query", "locked graph walk", ns(lockedMember), ratio(lockedMember, frozenMember))

	// Mutation-publish cost: one add+remove pair per op. The epoch path
	// rebuilds the closure and publishes twice; the shim edits a map
	// under a lock twice. This is the refactor's write-side price.
	reg := uw.Sys.Registry()
	frozenMut := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := reg.Apply(principal.AddMember("g3", "alice")); err != nil {
				panic(err)
			}
			if _, err := reg.Apply(principal.RemoveMember("g3", "alice")); err != nil {
				panic(err)
			}
		}
	})
	lockedMut := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			walk.add("alice", "g3")
			walk.remove("alice", "g3")
		}
	})
	t.add("membership add+remove", "freeze + epoch publish", ns(frozenMut), "1.0x")
	t.add("membership add+remove", "locked map edit (no publish)", ns(lockedMut), ratio(lockedMut, frozenMut))

	// Warm cached path in the same world shape: must sit in the E11/E13
	// warm band.
	cw, cctx, err := epochWorld(false)
	if err != nil {
		res.Err = err
		return res
	}
	warmCheck := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := cw.Sys.CheckData(cctx, "/fs/f", secext.Read); err != nil {
				panic(err)
			}
		}
	}
	warmCheck(1) // publish the verdict once
	warm := measure(defaultMinDur, warmCheck)
	t.add("warm cached check", "epoch version key", ns(warm), ratio(frozenCheck, warm))

	res.setTable(t)
	return res
}
