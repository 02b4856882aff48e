package secext_test

// Benchmarks, one family per experiment table in EXPERIMENTS.md
// (E1-E8, E10, plus the S1 matrix). cmd/benchtab prints the same
// measurements as formatted tables; these are the `go test -bench`
// versions.

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"secext"
	"secext/internal/acl"
	"secext/internal/baseline"
	"secext/internal/baseline/domains"
	"secext/internal/baseline/ntacl"
	"secext/internal/baseline/sandbox"
	"secext/internal/baseline/unixmode"
	"secext/internal/core"
	"secext/internal/dispatch"
	"secext/internal/lattice"
	"secext/internal/load"
	"secext/internal/names"
	"secext/internal/principal"
	"secext/internal/remote"
	"secext/internal/replica"
	"secext/internal/subject"
)

// benchWorld builds a quiet world (audit off) with one principal and
// one file, in a telemetry mode (secext.TelemetrySampled is the
// default) and with the decision cache optionally disabled.
func benchWorld(b testing.TB, mode secext.TelemetryMode, disableCache bool) (*secext.World, *secext.Context) {
	b.Helper()
	w, err := secext.NewWorld(secext.WorldOptions{
		Levels:               []string{"others", "organization", "local"},
		Categories:           []string{"dept-1", "dept-2"},
		DisableAudit:         true,
		DisableDecisionCache: disableCache,
		Telemetry:            secext.TelemetryOptions{Mode: mode},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Sys.AddPrincipal("alice", "organization:{dept-1}"); err != nil {
		b.Fatal(err)
	}
	ctx, err := w.Sys.NewContext("alice")
	if err != nil {
		b.Fatal(err)
	}
	open := secext.NewACL(secext.AllowEveryone(secext.Read | secext.Write | secext.WriteAppend))
	if err := w.FS.Create(ctx, "/fs/f", open, ctx.Class()); err != nil {
		b.Fatal(err)
	}
	return w, ctx
}

// --- E1: access-check latency by model ---

func BenchmarkE1CheckLatencySecextFull(b *testing.B) {
	w, ctx := benchWorld(b, secext.TelemetrySampled, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Sys.CheckData(ctx, "/fs/f", secext.Read); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1CheckLatencySecextDACOnly(b *testing.B) {
	_, ctx := benchWorld(b, secext.TelemetrySampled, false)
	a := acl.New(acl.Allow("alice", acl.Read|acl.Write), acl.AllowEveryone(acl.List))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !a.Check(ctx, acl.Read) {
			b.Fatal("deny")
		}
	}
}

func BenchmarkE1CheckLatencySecextMACOnly(b *testing.B) {
	_, ctx := benchWorld(b, secext.TelemetrySampled, false)
	obj := ctx.Class()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ctx.Class().CanRead(obj) {
			b.Fatal("deny")
		}
	}
}

func BenchmarkE1CheckLatencySandbox(b *testing.B) {
	sb := sandbox.New([]string{"trusted"}, []string{"/fs"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.CheckCall("alice", "/svc/x")
	}
}

func BenchmarkE1CheckLatencyDomains(b *testing.B) {
	dm := domains.New()
	dm.DefineDomain("fs", "/svc/fs")
	if err := dm.Link("alice", "fs"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dm.CheckCall("alice", "/svc/fs/read")
	}
}

func BenchmarkE1CheckLatencyUnix(b *testing.B) {
	ux := unixmode.New()
	ux.SetObject("/fs/f", "alice", "staff", 0o644)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ux.CheckData("alice", "/fs/f", baseline.OpRead)
	}
}

func BenchmarkE1CheckLatencyNTACL(b *testing.B) {
	nt := ntacl.New()
	nt.SetACL("/fs/f", ntacl.Entry{Subject: "alice", Rights: ntacl.Read | ntacl.Write})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nt.Check("alice", "/fs/f", ntacl.Read)
	}
}

// runParallel splits b.N across exactly `goroutines` workers — unlike
// b.RunParallel, which keys on GOMAXPROCS, this pins the concurrency
// level so 1/4/16-goroutine rows are comparable across machines.
func runParallel(b *testing.B, goroutines int, fn func(n int)) {
	b.Helper()
	var wg sync.WaitGroup
	per, extra := b.N/goroutines, b.N%goroutines
	b.ResetTimer()
	for g := 0; g < goroutines; g++ {
		n := per
		if g < extra {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			fn(n)
		}(n)
	}
	wg.Wait()
}

var parallelLevels = []int{1, 4, 16}

// BenchmarkE1CheckParallel is the contended variant of E1: identical
// warm checks from 1/4/16 goroutines. With the decision cache on, every
// iteration is a lock-free cache hit.
func BenchmarkE1CheckParallel(b *testing.B) {
	for _, g := range parallelLevels {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			w, ctx := benchWorld(b, secext.TelemetrySampled, false)
			if _, err := w.Sys.CheckData(ctx, "/fs/f", secext.Read); err != nil {
				b.Fatal(err)
			}
			runParallel(b, g, func(n int) {
				for i := 0; i < n; i++ {
					if _, err := w.Sys.CheckData(ctx, "/fs/f", secext.Read); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// TestCachedCheckZeroAllocs is the allocs-per-op guard the fast path is
// held to: a warm mediated check (audit off) must not allocate.
func TestCachedCheckZeroAllocs(t *testing.T) {
	w, ctx := benchWorld(t, secext.TelemetrySampled, false)
	if _, err := w.Sys.CheckData(ctx, "/fs/f", secext.Read); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := w.Sys.CheckData(ctx, "/fs/f", secext.Read); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cached check allocates %.1f objects/op, want 0", allocs)
	}
}

// --- E2: ACL size scaling ---

type benchSubject string

func (s benchSubject) SubjectName() string  { return string(s) }
func (s benchSubject) MemberOf(string) bool { return false }

func BenchmarkE2ACLScale(b *testing.B) {
	for _, size := range []int{1, 4, 16, 64, 256, 1024} {
		a := acl.New()
		for i := 0; i < size; i++ {
			a.Add(acl.Allow("p"+strconv.Itoa(i), acl.Read))
		}
		last := benchSubject("p" + strconv.Itoa(size-1))
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.Check(last, acl.Read)
			}
		})
	}
}

// --- E3: lattice ops vs category universe ---

func BenchmarkE3Lattice(b *testing.B) {
	for _, size := range []int{4, 16, 64, 256, 1024} {
		cats := make([]string, size)
		for i := range cats {
			cats[i] = "c" + strconv.Itoa(i)
		}
		lat, err := lattice.NewWithUniverse([]string{"lo", "hi"}, cats)
		if err != nil {
			b.Fatal(err)
		}
		var aCats []string
		for i := 0; i < size; i += 2 {
			aCats = append(aCats, cats[i])
		}
		x := lat.MustClass("hi", aCats...)
		y := lat.MustClass("lo", cats[:size/2]...)
		b.Run(fmt.Sprintf("cats=%d/dominates", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.Dominates(y)
			}
		})
		b.Run(fmt.Sprintf("cats=%d/join", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.Join(y)
			}
		})
	}
}

// --- E5: class-based dispatch ---

func BenchmarkE5Dispatch(b *testing.B) {
	noop := func(ctx *subject.Context, arg any) (any, error) { return nil, nil }
	for _, count := range []int{1, 2, 4, 8, 16, 32} {
		cats := make([]string, count)
		for i := range cats {
			cats[i] = "c" + strconv.Itoa(i)
		}
		sys, err := core.NewSystem(core.Options{
			Levels: []string{"lo", "hi"}, Categories: cats, DisableAudit: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.RegisterService(core.ServiceSpec{
			Path: "/s", ACL: acl.New(acl.AllowEveryone(acl.Execute)),
			Base: dispatch.Binding{Owner: "base", Handler: noop},
		}); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < count; i++ {
			if err := sys.Dispatcher().Extend("/s", dispatch.Binding{
				Owner:   "ext" + strconv.Itoa(i),
				Static:  sys.Lattice().MustClass("lo", cats[i]),
				Handler: noop,
			}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sys.AddPrincipal("caller", "hi:{"+cats[count-1]+"}"); err != nil {
			b.Fatal(err)
		}
		ctx, err := sys.NewContext("caller")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("handlers=%d", count), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.Call(ctx, "/s", nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6: link-time checking ---

type nullExt struct{}

func (nullExt) Init(lk *secext.Linkage) (map[string]secext.Handler, error) {
	return map[string]secext.Handler{}, nil
}

func BenchmarkE6Link(b *testing.B) {
	noop := func(ctx *subject.Context, arg any) (any, error) { return nil, nil }
	for _, count := range []int{1, 8, 64, 256} {
		sys, err := core.NewSystem(core.Options{Levels: []string{"lo"}, DisableAudit: true})
		if err != nil {
			b.Fatal(err)
		}
		imports := make([]string, count)
		for i := 0; i < count; i++ {
			p := "/s" + strconv.Itoa(i)
			if err := sys.RegisterService(core.ServiceSpec{
				Path: p, ACL: acl.New(acl.AllowEveryone(acl.Execute)),
				Base: dispatch.Binding{Owner: "b", Handler: noop},
			}); err != nil {
				b.Fatal(err)
			}
			imports[i] = p
		}
		if _, err := sys.AddPrincipal("vendor", "lo"); err != nil {
			b.Fatal(err)
		}
		tok, err := sys.Registry().IssueToken("vendor")
		if err != nil {
			b.Fatal(err)
		}
		seq := 0
		b.Run(fmt.Sprintf("imports=%d", count), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := secext.Manifest{
					Name:      fmt.Sprintf("e%d-%d", count, seq),
					Principal: "vendor", Token: tok,
					Imports: imports,
					Code:    func() secext.Extension { return nullExt{} },
				}
				seq++
				if _, err := sys.Loader().Load(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7: end-to-end null call ---

func e7System(b *testing.B) (*core.System, *subject.Context) {
	b.Helper()
	sys, err := core.NewSystem(core.Options{Levels: []string{"lo"}, AuditCapacity: 4096})
	if err != nil {
		b.Fatal(err)
	}
	noop := func(ctx *subject.Context, arg any) (any, error) { return nil, nil }
	if err := sys.RegisterService(core.ServiceSpec{
		Path: "/null", ACL: acl.New(acl.AllowEveryone(acl.Execute)),
		Base: dispatch.Binding{Owner: "b", Handler: noop},
	}); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.AddPrincipal("p", "lo"); err != nil {
		b.Fatal(err)
	}
	ctx, err := sys.NewContext("p")
	if err != nil {
		b.Fatal(err)
	}
	return sys, ctx
}

func BenchmarkE7CallRawDispatch(b *testing.B) {
	sys, ctx := e7System(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Dispatcher().Invoke("/null", ctx, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7CallMediatedAuditOff(b *testing.B) {
	sys, ctx := e7System(b)
	sys.Audit().SetEnabled(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Call(ctx, "/null", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7CallMediatedAuditOn(b *testing.B) {
	sys, ctx := e7System(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Call(ctx, "/null", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7CallLinkedTrusted(b *testing.B) {
	sys, ctx := e7System(b)
	sys.Audit().SetEnabled(false)
	sys.SetTrustLinkTime(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.CallLinked(ctx, "/null", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7CallParallel is the contended variant of E7: the full
// mediated null call (check + dispatch) from 1/4/16 goroutines, audit
// off.
func BenchmarkE7CallParallel(b *testing.B) {
	for _, g := range parallelLevels {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			sys, ctx := e7System(b)
			sys.Audit().SetEnabled(false)
			if _, err := sys.Call(ctx, "/null", nil); err != nil {
				b.Fatal(err)
			}
			runParallel(b, g, func(n int) {
				for i := 0; i < n; i++ {
					if _, err := sys.Call(ctx, "/null", nil); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// --- E11: decision-cache contention ---

// BenchmarkE11Contention compares four 16-goroutine workloads:
//
//	uncached — decision cache off; every check resolves and verifies
//	           lock-free against the pinned epoch
//	cold     — cache on, but each worker invalidates before checking,
//	           so every check misses, recomputes, and republishes
//	warm     — steady state: every check is a lock-free hit
//	storm    — a background writer bumps the generation in a tight
//	           loop while 16 readers check (revocation storm)
func BenchmarkE11Contention(b *testing.B) {
	const goroutines = 16
	check := func(b *testing.B, w *secext.World, ctx *secext.Context, pre func()) {
		runParallel(b, goroutines, func(n int) {
			for i := 0; i < n; i++ {
				if pre != nil {
					pre()
				}
				if _, err := w.Sys.CheckData(ctx, "/fs/f", secext.Read); err != nil {
					b.Error(err)
					return
				}
			}
		})
	}
	b.Run("uncached", func(b *testing.B) {
		w, ctx := benchWorld(b, secext.TelemetrySampled, true)
		check(b, w, ctx, nil)
	})
	b.Run("cold", func(b *testing.B) {
		w, ctx := benchWorld(b, secext.TelemetrySampled, false)
		check(b, w, ctx, w.Sys.Registry().Touch)
	})
	b.Run("warm", func(b *testing.B) {
		w, ctx := benchWorld(b, secext.TelemetrySampled, false)
		if _, err := w.Sys.CheckData(ctx, "/fs/f", secext.Read); err != nil {
			b.Fatal(err)
		}
		check(b, w, ctx, nil)
	})
	b.Run("storm", func(b *testing.B) {
		w, ctx := benchWorld(b, secext.TelemetrySampled, false)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					w.Sys.Registry().Touch()
				}
			}
		}()
		check(b, w, ctx, nil)
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
}

// --- E8: group nesting ---

func BenchmarkE8Groups(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8, 16} {
		sys, err := core.NewSystem(core.Options{Levels: []string{"lo"}, DisableAudit: true})
		if err != nil {
			b.Fatal(err)
		}
		reg := sys.Registry()
		if _, err := sys.AddPrincipal("alice", "lo"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < depth; i++ {
			if _, err := reg.Apply(principal.AddGroup("g" + strconv.Itoa(i))); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := reg.Apply(principal.AddMember("g0", "alice")); err != nil {
			b.Fatal(err)
		}
		for i := 1; i < depth; i++ {
			if _, err := reg.Apply(principal.AddMember("g"+strconv.Itoa(i), "g"+strconv.Itoa(i-1))); err != nil {
				b.Fatal(err)
			}
		}
		a := acl.New(acl.AllowGroup("g"+strconv.Itoa(depth-1), acl.Read))
		ctx, err := sys.NewContext("alice")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !a.Check(ctx, acl.Read) {
					b.Fatal("deny")
				}
			}
		})
	}
}

// --- E10: mediated append ---

func BenchmarkE10Append(b *testing.B) {
	w, err := secext.NewWorld(secext.WorldOptions{
		Levels: []string{"others", "local"}, DisableAudit: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Sys.AddPrincipal("applet", "others"); err != nil {
		b.Fatal(err)
	}
	ctx, err := w.Sys.NewContext("applet")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Journal.Append(ctx, "x"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E16: write-path churn (multi-edit Apply) ---

// e16World builds the E16 fixture: 64 member principals, a reader whose
// access flows through the churned group, audit off.
func e16World(b testing.TB) (*secext.World, *secext.Context, []string) {
	b.Helper()
	w, err := secext.NewWorld(secext.WorldOptions{
		Levels:       []string{"others", "organization", "local"},
		Categories:   []string{"dept-1", "dept-2"},
		DisableAudit: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	reg := w.Sys.Registry()
	if _, err := reg.Apply(principal.AddGroup("churn")); err != nil {
		b.Fatal(err)
	}
	if _, err := w.Sys.AddPrincipal("alice", "organization:{dept-1}"); err != nil {
		b.Fatal(err)
	}
	members := make([]string, 64)
	for i := range members {
		name := fmt.Sprintf("p%d", i)
		if _, err := w.Sys.AddPrincipal(name, "organization:{dept-1}"); err != nil {
			b.Fatal(err)
		}
		members[i] = name
	}
	if _, err := reg.Apply(principal.AddMember("churn", "alice")); err != nil {
		b.Fatal(err)
	}
	ctx, err := w.Sys.NewContext("alice")
	if err != nil {
		b.Fatal(err)
	}
	grant := secext.NewACL(secext.AllowGroup("churn", secext.Read))
	if err := w.FS.Create(ctx, "/fs/churn", grant, ctx.Class()); err != nil {
		b.Fatal(err)
	}
	return w, ctx, members
}

// BenchmarkE16Churn is the benchmark form of E16's table: per-mutation
// publish cost, and the 64-member bulk op as per-edit Apply calls vs
// one 64-edit Apply.
func BenchmarkE16Churn(b *testing.B) {
	b.Run("single", func(b *testing.B) {
		w, _, _ := e16World(b)
		reg := w.Sys.Registry()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := reg.Apply(principal.AddMember("churn", "p0")); err != nil {
				b.Fatal(err)
			}
			if _, err := reg.Apply(principal.RemoveMember("churn", "p0")); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bulk64-unbatched", func(b *testing.B) {
		w, _, members := e16World(b)
		reg := w.Sys.Registry()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, m := range members {
				if _, err := reg.Apply(principal.AddMember("churn", m)); err != nil {
					b.Fatal(err)
				}
			}
			for _, m := range members {
				if _, err := reg.Apply(principal.RemoveMember("churn", m)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("bulk64-batched", func(b *testing.B) {
		w, _, members := e16World(b)
		reg := w.Sys.Registry()
		grant := make([]principal.Edit, len(members))
		revoke := make([]principal.Edit, len(members))
		for i, m := range members {
			grant[i] = principal.AddMember("churn", m)
			revoke[i] = principal.RemoveMember("churn", m)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := reg.Apply(grant...); err != nil {
				b.Fatal(err)
			}
			if _, err := reg.Apply(revoke...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE16ChurnUnderReaders runs mutations while reader goroutines
// hammer the warm cached check — the sustained-churn shape of E16's
// concurrent row. Reported ns/op is per add+remove pair.
func BenchmarkE16ChurnUnderReaders(b *testing.B) {
	w, ctx, members := e16World(b)
	reg := w.Sys.Registry()
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
				if _, err := w.Sys.CheckData(ctx, "/fs/churn", secext.Read); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Apply(principal.AddMember("churn", members[0])); err != nil {
			b.Fatal(err)
		}
		if _, err := reg.Apply(principal.RemoveMember("churn", members[0])); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// --- S1: full matrix evaluation ---

func BenchmarkS1OrgMatrix(b *testing.B) {
	w, err := secext.NewWorld(secext.WorldOptions{
		Levels:       []string{"others", "organization", "local"},
		Categories:   []string{"myself", "dept-1", "dept-2", "outside"},
		DisableAudit: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	classes := map[string]string{
		"user":     "local:{myself,dept-1,dept-2,outside}",
		"applet1":  "organization:{dept-1}",
		"applet2":  "organization:{dept-2}",
		"applet3":  "organization:{dept-1,dept-2}",
		"outsider": "others:{outside}",
	}
	var ctxs []*secext.Context
	for name, class := range classes {
		if _, err := w.Sys.AddPrincipal(name, class); err != nil {
			b.Fatal(err)
		}
		ctx, err := w.Sys.NewContext(name)
		if err != nil {
			b.Fatal(err)
		}
		ctxs = append(ctxs, ctx)
	}
	open := secext.NewACL(secext.AllowEveryone(secext.Read | secext.Write))
	var files []string
	for _, owner := range []string{"applet1", "applet2", "applet3"} {
		ctx, _ := w.Sys.NewContext(owner)
		path := "/fs/" + owner + "-file"
		if err := w.FS.Create(ctx, path, open, ctx.Class()); err != nil {
			b.Fatal(err)
		}
		files = append(files, path)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ctx := range ctxs {
			for _, f := range files {
				_, _ = w.Sys.CheckData(ctx, f, secext.Read)
			}
		}
	}
}

// --- E17: compiled-epoch resolve (uncached check vs warm hit) ---

// e17Names builds a chain /n0/n1/.../leaf with listable interior
// nodes and one principal; with the decision cache disabled every
// CheckData exercises the uncached path the compiled epoch accelerates.
func e17Names(b testing.TB, depth int, disableCache bool) (*core.System, *subject.Context, string) {
	sys, err := core.NewSystem(core.Options{
		Levels: []string{"lo"}, DisableAudit: true, DisableDecisionCache: disableCache,
	})
	if err != nil {
		b.Fatal(err)
	}
	listable := acl.New(acl.AllowEveryone(acl.List))
	path := ""
	for i := 0; i < depth-1; i++ {
		path += "/n" + strconv.Itoa(i)
		if _, err := sys.CreateNode(core.NodeSpec{Path: path, Kind: names.KindDomain, ACL: listable}); err != nil {
			b.Fatal(err)
		}
	}
	leaf := path + "/leaf"
	if _, err := sys.CreateNode(core.NodeSpec{
		Path: leaf, Kind: names.KindFile, ACL: acl.New(acl.AllowEveryone(acl.Read)),
	}); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.AddPrincipal("p", "lo"); err != nil {
		b.Fatal(err)
	}
	ctx, err := sys.NewContext("p")
	if err != nil {
		b.Fatal(err)
	}
	return sys, ctx, leaf
}

// BenchmarkE17Resolve is the benchmark form of E17's table: the
// uncached mediated check with the compiled verdict on and off, plus
// the warm cached hit at the same depth for the band comparison.
func BenchmarkE17Resolve(b *testing.B) {
	for _, depth := range []int{2, 8, 32} {
		sys, ctx, leaf := e17Names(b, depth, true)
		b.Run(fmt.Sprintf("depth=%d/uncached-compiled", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.CheckData(ctx, leaf, acl.Read); err != nil {
					b.Fatal(err)
				}
			}
		})
		sys.Names().SetCompiledEpochs(false)
		b.Run(fmt.Sprintf("depth=%d/uncached-walk", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.CheckData(ctx, leaf, acl.Read); err != nil {
					b.Fatal(err)
				}
			}
		})
		sys.Names().SetCompiledEpochs(true)

		wsys, wctx, wleaf := e17Names(b, depth, false)
		if _, err := wsys.CheckData(wctx, wleaf, acl.Read); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("depth=%d/warm-hit", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wsys.CheckData(wctx, wleaf, acl.Read); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE17ResolveOnly isolates naming from verification at depth
// 32: the compiled index probe vs the checked spine walk.
func BenchmarkE17ResolveOnly(b *testing.B) {
	sys, ctx, leaf := e17Names(b, 32, true)
	ns := sys.Names()
	b.Run("index-probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ns.Resolve(ctx, ctx.Class(), leaf); err != nil {
				b.Fatal(err)
			}
		}
	})
	ns.SetCompiledEpochs(false)
	b.Run("spine-walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ns.Resolve(ctx, ctx.Class(), leaf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E13: telemetry modes and the shadow divergence monitor ---

// BenchmarkE13Telemetry is the benchmark form of E13's table: the
// warm cached check and the uncached check, by telemetry mode. The
// claim is that "sampled" warm hits match "off" — trace selection and
// the shadow comparison behind it cost one branch — while
// "full/uncached" prices the shadow monitor's worst case (every check
// walks twice). An uncached run must end with no divergence.
func BenchmarkE13Telemetry(b *testing.B) {
	modes := []struct {
		name string
		mode secext.TelemetryMode
	}{
		{"off", secext.TelemetryOff},
		{"sampled", secext.TelemetrySampled},
		{"full", secext.TelemetryFull},
	}
	for _, m := range modes {
		w, ctx := benchWorld(b, m.mode, false)
		if _, err := w.Sys.CheckData(ctx, "/fs/f", secext.Read); err != nil {
			b.Fatal(err)
		}
		b.Run(m.name+"/warm-hit", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.Sys.CheckData(ctx, "/fs/f", secext.Read); err != nil {
					b.Fatal(err)
				}
			}
		})
		uw, uctx := benchWorld(b, m.mode, true)
		b.Run(m.name+"/uncached", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := uw.Sys.CheckData(uctx, "/fs/f", secext.Read); err != nil {
					b.Fatal(err)
				}
			}
			if dv := uw.Sys.Names().Stats().Divergences; dv != 0 {
				b.Fatalf("%d divergences on an honest epoch", dv)
			}
		})
	}
}

// --- E19: replica mediation and the revocation barrier ---

// benchFleet wires a replication-enabled primary and n connected
// replicas over loopback TCP.
func benchFleet(b *testing.B, n int) (*secext.World, *replica.Publisher, []*replica.Replica, []*secext.Context, func()) {
	b.Helper()
	w, ctx := benchWorld(b, secext.TelemetrySampled, false)
	if _, err := w.Sys.AddPrincipal("replicator", "others"); err != nil {
		b.Fatal(err)
	}
	rootACL, err := w.Sys.Names().ACLOf("/")
	if err != nil {
		b.Fatal(err)
	}
	rootACL.Add(secext.Allow("replicator", secext.Administrate))
	if err := w.Sys.Names().SetACLUnchecked("/", rootACL); err != nil {
		b.Fatal(err)
	}
	rtok, err := w.Sys.Registry().IssueToken("replicator")
	if err != nil {
		b.Fatal(err)
	}
	aliceTok, err := w.Sys.Registry().IssueToken("alice")
	if err != nil {
		b.Fatal(err)
	}
	srv := remote.NewServer(w.Sys)
	srv.PingInterval = 100 * time.Millisecond
	pub := replica.NewPublisher(w.Sys)
	srv.SetPublisher(pub)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	reps := make([]*replica.Replica, n)
	ctxs := make([]*secext.Context, n)
	for i := range reps {
		reps[i], err = replica.Connect(replica.Options{
			Addr: l.Addr().String(), Token: rtok, StaleAfter: time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		ctxs[i], err = reps[i].System().NewContextFromToken(aliceTok)
		if err != nil {
			b.Fatal(err)
		}
	}
	cleanup := func() {
		for _, r := range reps {
			r.Close()
		}
		pub.Close()
		srv.Close()
		l.Close()
	}
	_ = ctx
	return w, pub, reps, ctxs, cleanup
}

// BenchmarkE19ReplicaCheck measures the warm mediated check served
// from a replica's locally rebuilt epoch — the number the tentpole
// promises is the primary's own warm path, not a network round trip.
func BenchmarkE19ReplicaCheck(b *testing.B) {
	_, _, reps, ctxs, cleanup := benchFleet(b, 1)
	defer cleanup()
	sys, ctx := reps[0].System(), ctxs[0]
	if _, err := sys.CheckData(ctx, "/fs/f", secext.Read); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.CheckData(ctx, "/fs/f", secext.Read); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE19RevocationBarrier measures one full revocation round
// trip at fleet sizes 1 and 2: publish a revoking epoch on the
// primary, then block until every replica acknowledges it.
func BenchmarkE19RevocationBarrier(b *testing.B) {
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			w, pub, _, _, cleanup := benchFleet(b, n)
			defer cleanup()
			open := secext.NewACL(secext.AllowEveryone(secext.Read | secext.Write | secext.WriteAppend))
			closed := secext.NewACL(secext.AllowEveryone(secext.Read))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next := open
				if i%2 == 0 {
					next = closed
				}
				v, err := w.Sys.Names().Apply(nil, lattice.Class{}, names.SetACL("/fs/f", next))
				if err != nil {
					b.Fatal(err)
				}
				if err := pub.Barrier(v, 10*time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E20: million-object epochs (compact layout) ---

// BenchmarkE20BulkBind prices building one whole load-plan tree through
// the bulk bind path on a bare name server; per-op time divided by
// TotalNodes is the amortized per-node cost the 10^6-node bench-load
// build pays. The plan is the E20 population's shape at a size small
// enough for a smoke iteration.
func BenchmarkE20BulkBind(b *testing.B) {
	cfg := load.Defaults()
	cfg.Nodes = 4096
	cfg.Principals = 256
	cfg.Groups = 8
	cfg.ACLPool = 64
	p := load.NewPlan(cfg)
	lat, err := lattice.NewWithUniverse([]string{"lo", "hi"}, nil)
	if err != nil {
		b.Fatal(err)
	}
	bottom, err := lat.Bottom()
	if err != nil {
		b.Fatal(err)
	}
	rootACL := acl.New(acl.AllowEveryone(acl.List))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := names.NewServer(lat, rootACL, bottom)
		if err := load.BuildTree(srv, p, bottom); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.TotalNodes), "nodes/op")
}
