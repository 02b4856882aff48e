package experiments

import (
	"fmt"
	"strconv"

	"secext/internal/acl"
	"secext/internal/core"
	"secext/internal/names"
	"secext/internal/subject"
)

// e17World builds a chain /n0/n1/.../leaf with listable interior
// nodes, the decision cache optionally disabled, a registered principal
// at "lo", and audit off so rows price the check itself. Beside the
// leaf sit the denial targets: "hidden", a directory nobody may list,
// with a child x, and "high", a file classed "hi" that everyone may
// read.
func e17World(depth int, disableCache bool) (*core.System, *subject.Context, string, error) {
	sys, err := core.NewSystem(core.Options{
		Levels: []string{"lo", "hi"}, DisableAudit: true,
		DisableDecisionCache: disableCache,
	})
	if err != nil {
		return nil, nil, "", err
	}
	hi, err := sys.ParseClass("hi")
	if err != nil {
		return nil, nil, "", err
	}
	listable := acl.New(acl.AllowEveryone(acl.List))
	readable := acl.New(acl.AllowEveryone(acl.Read))
	path := ""
	for i := 0; i < depth-1; i++ {
		path += "/n" + strconv.Itoa(i)
		if _, err := sys.CreateNode(core.NodeSpec{Path: path, Kind: names.KindDomain, ACL: listable}); err != nil {
			return nil, nil, "", err
		}
	}
	for _, spec := range []core.NodeSpec{
		{Path: path + "/leaf", Kind: names.KindFile, ACL: readable},
		{Path: path + "/hidden", Kind: names.KindDomain, ACL: acl.New()},
		{Path: path + "/hidden/x", Kind: names.KindFile, ACL: readable},
		{Path: path + "/high", Kind: names.KindFile, ACL: readable, Class: hi},
	} {
		if _, err := sys.CreateNode(spec); err != nil {
			return nil, nil, "", err
		}
	}
	if _, err := sys.AddPrincipal("p", "lo"); err != nil {
		return nil, nil, "", err
	}
	ctx, err := sys.NewContext("p")
	return sys, ctx, path + "/leaf", err
}

// e17Denials are the denials E17 prices, as (row label, path relative
// to the leaf's directory, modes): a missing grant on the leaf, an
// ancestor hidden by its ACL, and a MAC read up.
var e17Denials = []struct {
	label, rel string
	modes      acl.Mode
}{
	{"missing grant", "leaf", acl.Write},
	{"hidden ancestor", "hidden/x", acl.Read},
	{"MAC flow", "high", acl.Read},
}

// E17 prices the uncached mediated check against the warm cache hit
// once epochs carry a compiled read side: a flat path→node index, per-
// node effective-ACL bitsets covering the traversal chain, and an
// interned dominance table. The claim under test is that the compiled
// verdict removes the depth-proportional spine walk and entry
// iteration, pulling the uncached check into the warm check's band —
// so a cache miss (or a cache-free deployment) no longer costs an
// order of magnitude.
//
// Per depth, three checks on the same chain:
//
//   - warm: decision-cache hit, the fast-path floor (depth-blind).
//   - uncached/compiled: cache disabled, compiled epochs on — one index
//     probe, two bitset tests, one dominance lookup.
//   - uncached/walk: cache disabled, compiled epochs off — the spine
//     walk with per-level visibility checks and ACL entry iteration.
//
// and each of the three common denials (e17Denials), uncached, by the
// compiled path and by the walk. A hidden ancestor costs the compiled
// path one index probe per ancestor down to the one that hides, which
// here is the deepest.
//
// The resolve-only rows isolate naming from verification: the compiled
// index probe against the checked spine walk, without the guard stack.
//
// The compiled check stays flat as depth grows only because the
// traversal verdict is precomputed; the walk rows grow linearly. Both
// produce identical decisions — the oracle for that equivalence is
// FuzzDecisionSurfaces and FuzzEpochTransitions, not this
// table.
func E17() Result {
	res := Result{ID: "E17", Title: "Compiled-epoch resolve: uncached check vs warm cache hit by depth"}
	t := &table{header: []string{"depth", "path", "ns/op", "vs warm"}}
	ratio := func(v, warm float64) string {
		if warm == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1fx", v/warm)
	}

	for _, depth := range []int{2, 8, 32} {
		// Warm cache hits need the cache; the uncached rows need it off.
		cw, cctx, cleaf, err := e17World(depth, false)
		if err != nil {
			res.Err = err
			return res
		}
		uw, uctx, uleaf, err := e17World(depth, true)
		if err != nil {
			res.Err = err
			return res
		}

		warmFn := func(n int) {
			for i := 0; i < n; i++ {
				if _, err := cw.CheckData(cctx, cleaf, acl.Read); err != nil {
					panic(err)
				}
			}
		}
		warmFn(1) // publish the verdict once
		warm := measure(defaultMinDur, warmFn)

		compiled := measure(defaultMinDur, func(n int) {
			for i := 0; i < n; i++ {
				if _, err := uw.CheckData(uctx, uleaf, acl.Read); err != nil {
					panic(err)
				}
			}
		})

		uw.Names().SetCompiledEpochs(false)
		walk := measure(defaultMinDur, func(n int) {
			for i := 0; i < n; i++ {
				if _, err := uw.CheckData(uctx, uleaf, acl.Read); err != nil {
					panic(err)
				}
			}
		})
		uw.Names().SetCompiledEpochs(true)

		d := strconv.Itoa(depth)
		t.add(d, "warm (cache hit)", ns(warm), "1.0x")
		t.add(d, "uncached, compiled verdict", ns(compiled), ratio(compiled, warm))
		t.add(d, "uncached, spine walk", ns(walk), ratio(walk, warm))

		// Sanity: the compiled fast path actually decided this check.
		ep := uw.Names().Current()
		if !ep.Compiled() {
			res.Err = fmt.Errorf("E17: depth-%d epoch not compiled after re-enable", depth)
			return res
		}
		if _, decided := ep.CompiledAllows(uctx.Principal(), uctx.Class(), uleaf, acl.Read); !decided {
			res.Err = fmt.Errorf("E17: depth-%d compiled verdict undecided for %s", depth, uleaf)
			return res
		}

		dir := uleaf[:len(uleaf)-len("leaf")]
		for _, dn := range e17Denials {
			target := dir + dn.rel
			var walkErr error
			deny := func(n int) {
				for i := 0; i < n; i++ {
					if _, err := uw.CheckData(uctx, target, dn.modes); !core.IsDenied(err) {
						panic(fmt.Sprintf("E17: %s on %s: %v", dn.label, target, err))
					}
				}
			}
			compiled := measure(defaultMinDur, deny)
			uw.Names().SetCompiledEpochs(false)
			walk := measure(defaultMinDur, deny)
			_, walkErr = uw.CheckData(uctx, target, dn.modes)
			uw.Names().SetCompiledEpochs(true)
			t.add(d, "uncached denial ("+dn.label+"), compiled", ns(compiled), ratio(compiled, warm))
			t.add(d, "uncached denial ("+dn.label+"), spine walk", ns(walk), ratio(walk, warm))

			// Sanity: the compiled path decided the denial, with the
			// walk's text.
			_, err, decided := uw.Names().Current().CompiledCheck(uctx.Principal(), uctx.Class(), target, dn.modes)
			if !decided || err == nil || err.Error() != walkErr.Error() {
				res.Err = fmt.Errorf("E17: depth-%d %s: compiled (%v, decided %v), walk %v", depth, dn.label, err, decided, walkErr)
				return res
			}
		}
	}

	// Resolve-only split at depth 32: naming without verification.
	uw, uctx, uleaf, err := e17World(32, true)
	if err != nil {
		res.Err = err
		return res
	}
	ns32 := uw.Names()
	indexed := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := ns32.Resolve(uctx, uctx.Class(), uleaf); err != nil {
				panic(err)
			}
		}
	})
	ns32.SetCompiledEpochs(false)
	walked := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := ns32.Resolve(uctx, uctx.Class(), uleaf); err != nil {
				panic(err)
			}
		}
	})
	t.add("32", "resolve only, index probe", ns(indexed), ratio(indexed, walked)+" of walk")
	t.add("32", "resolve only, spine walk", ns(walked), "-")

	res.setTable(t)
	return res
}
