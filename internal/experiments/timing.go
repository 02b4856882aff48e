package experiments

import (
	"fmt"
	"strconv"
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
	"secext/internal/monitor"
	"secext/internal/principal"
	"secext/internal/subject"
	"secext/internal/telemetry"
)

// E1 compares single access-check latency across the models.
func E1() Result {
	res := Result{ID: "E1", Title: "Access-check latency by model (audit off)"}
	w, ctx, err := checkWorld(telemetry.ModeSampled, false)
	if err != nil {
		res.Err = err
		return res
	}
	t := &table{header: []string{"model / check", "ns/op"}}

	// secext full mediation: resolve + DAC + MAC on a depth-2 path.
	full := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := w.Sys.CheckData(ctx, "/fs/f", secext.Read); err != nil {
				panic(err)
			}
		}
	})
	t.add("secext DAC+MAC (resolve+check)", ns(full))

	// The same check swept over monitor pipeline depth (E12 has the
	// full uncached/warm split; these rows anchor it in E1's table).
	for _, st := range pipelineStacks() {
		dw, dctx, err := checkWorld(telemetry.ModeSampled, false)
		if err != nil {
			res.Err = err
			return res
		}
		dw.Sys.Names().SetPipeline(monitor.NewPipeline(st.guards...))
		depth := measure(defaultMinDur, func(n int) {
			for i := 0; i < n; i++ {
				if _, err := dw.Sys.CheckData(dctx, "/fs/f", secext.Read); err != nil {
					panic(err)
				}
			}
		})
		t.add(fmt.Sprintf("secext pipeline %s (depth %d)", st.name, len(st.guards)), ns(depth))
	}

	// Isolated DAC decision.
	a := acl.New(acl.Allow("alice", acl.Read|acl.Write), acl.AllowEveryone(acl.List))
	dacOnly := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			if !a.Check(ctx, acl.Read) {
				panic("deny")
			}
		}
	})
	t.add("secext DAC only (ACL decision)", ns(dacOnly))

	// Isolated MAC decision.
	obj := ctx.Class()
	macOnly := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			if !ctx.Class().CanRead(obj) {
				panic("deny")
			}
		}
	})
	t.add("secext MAC only (dominance)", ns(macOnly))

	// Baselines.
	sb := sandbox.New([]string{"trusted"}, []string{"/fs"})
	t.add("java-sandbox", ns(measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			sb.CheckCall("alice", "/svc/x")
		}
	})))
	dm := domains.New()
	dm.DefineDomain("fs", "/svc/fs")
	_ = dm.Link("alice", "fs")
	t.add("spin-domains", ns(measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			dm.CheckCall("alice", "/svc/fs/read")
		}
	})))
	ux := unixmode.New()
	ux.SetObject("/fs/f", "alice", "staff", 0o644)
	t.add("unix-modes", ns(measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			ux.CheckData("alice", "/fs/f", baseline.OpRead)
		}
	})))
	nt := ntacl.New()
	nt.SetACL("/fs/f", ntacl.Entry{Subject: "alice", Rights: ntacl.Read | ntacl.Write})
	t.add("nt-acl", ns(measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			nt.Check("alice", "/fs/f", ntacl.Read)
		}
	})))
	res.setTable(t)
	return res
}

// aclSubject is a minimal subject for ACL microbenchmarks.
type aclSubject string

func (s aclSubject) SubjectName() string  { return string(s) }
func (s aclSubject) MemberOf(string) bool { return false }

// buildACL returns an ACL with n allow entries for distinct principals.
func buildACL(n int) *acl.ACL {
	a := acl.New()
	for i := 0; i < n; i++ {
		a.Add(acl.Allow("p"+strconv.Itoa(i), acl.Read))
	}
	return a
}

// E2 scales the ACL size; deny-overrides must scan every entry, so the
// cost is linear regardless of where the subject's entry sits.
func E2() Result {
	res := Result{ID: "E2", Title: "DAC decision vs ACL size (deny-overrides scans all entries)"}
	t := &table{header: []string{"entries", "hit first", "hit last", "miss (deny)"}}
	for _, size := range []int{1, 4, 16, 64, 256, 1024} {
		a := buildACL(size)
		first := aclSubject("p0")
		last := aclSubject("p" + strconv.Itoa(size-1))
		miss := aclSubject("nobody")
		mf := measure(defaultMinDur, func(n int) {
			for i := 0; i < n; i++ {
				a.Check(first, acl.Read)
			}
		})
		ml := measure(defaultMinDur, func(n int) {
			for i := 0; i < n; i++ {
				a.Check(last, acl.Read)
			}
		})
		mm := measure(defaultMinDur, func(n int) {
			for i := 0; i < n; i++ {
				a.Check(miss, acl.Read)
			}
		})
		t.add(strconv.Itoa(size), ns(mf), ns(ml), ns(mm))
	}
	res.setTable(t)
	return res
}

// E3 scales the category universe; bitset dominance should stay flat
// until sets exceed machine words.
func E3() Result {
	res := Result{ID: "E3", Title: "MAC lattice ops vs category-universe size (bitset classes)"}
	t := &table{header: []string{"categories", "dominates", "join", "meet"}}
	for _, size := range []int{4, 16, 64, 256, 1024} {
		cats := make([]string, size)
		for i := range cats {
			cats[i] = "c" + strconv.Itoa(i)
		}
		lat, err := lattice.NewWithUniverse([]string{"lo", "hi"}, cats)
		if err != nil {
			res.Err = err
			return res
		}
		// a holds the even categories, b the first half: realistic
		// partial overlap.
		var aCats, bCats []string
		for i := 0; i < size; i += 2 {
			aCats = append(aCats, cats[i])
		}
		bCats = cats[:size/2]
		a := lat.MustClass("hi", aCats...)
		b := lat.MustClass("lo", bCats...)
		md := measure(defaultMinDur, func(n int) {
			for i := 0; i < n; i++ {
				a.Dominates(b)
			}
		})
		mj := measure(defaultMinDur, func(n int) {
			for i := 0; i < n; i++ {
				a.Join(b)
			}
		})
		mm := measure(defaultMinDur, func(n int) {
			for i := 0; i < n; i++ {
				a.Meet(b)
			}
		})
		t.add(strconv.Itoa(size), ns(md), ns(mj), ns(mm))
	}
	res.setTable(t)
	return res
}

// E5 scales the number of statically classed specializations on one
// service; selection scans all bindings.
func E5() Result {
	res := Result{ID: "E5", Title: "Class-based dispatch vs specializations per service"}
	t := &table{header: []string{"handlers", "select+invoke ns/op"}}
	for _, count := range []int{1, 2, 4, 8, 16, 32} {
		cats := make([]string, count)
		for i := range cats {
			cats[i] = "c" + strconv.Itoa(i)
		}
		sys, err := core.NewSystem(core.Options{
			Levels: []string{"lo", "hi"}, Categories: cats, DisableAudit: true,
		})
		if err != nil {
			res.Err = err
			return res
		}
		noop := func(ctx *subject.Context, arg any) (any, error) { return nil, nil }
		err = sys.RegisterService(core.ServiceSpec{
			Path: "/s", ACL: acl.New(acl.AllowEveryone(acl.Execute)),
			Base: dispatch.Binding{Owner: "base", Handler: noop},
		})
		if err != nil {
			res.Err = err
			return res
		}
		for i := 0; i < count; i++ {
			b := dispatch.Binding{
				Owner:   "ext" + strconv.Itoa(i),
				Static:  sys.Lattice().MustClass("lo", cats[i]),
				Handler: noop,
			}
			if err := sys.Dispatcher().Extend("/s", b); err != nil {
				res.Err = err
				return res
			}
		}
		if _, err := sys.AddPrincipal("caller", "hi:{"+cats[count-1]+"}"); err != nil {
			res.Err = err
			return res
		}
		ctx, err := sys.NewContext("caller")
		if err != nil {
			res.Err = err
			return res
		}
		m := measure(defaultMinDur, func(n int) {
			for i := 0; i < n; i++ {
				if _, err := sys.Call(ctx, "/s", nil); err != nil {
					panic(err)
				}
			}
		})
		t.add(strconv.Itoa(count), ns(m))
	}
	res.setTable(t)
	return res
}

// linkExt is a no-op extension with many imports.
type linkExt struct{}

func (linkExt) Init(lk *secext.Linkage) (map[string]secext.Handler, error) {
	return map[string]secext.Handler{}, nil
}

// E6 measures link time vs import count: the cost SPIN pays once so
// calls can skip re-checking.
func E6() Result {
	res := Result{ID: "E6", Title: "Extension link time vs number of imports"}
	t := &table{header: []string{"imports", "link time", "per import"}}
	for _, count := range []int{1, 8, 64, 256} {
		sys, err := core.NewSystem(core.Options{
			Levels: []string{"lo"}, DisableAudit: true,
		})
		if err != nil {
			res.Err = err
			return res
		}
		noop := func(ctx *subject.Context, arg any) (any, error) { return nil, nil }
		imports := make([]string, count)
		for i := 0; i < count; i++ {
			p := "/s" + strconv.Itoa(i)
			if err := sys.RegisterService(core.ServiceSpec{
				Path: p, ACL: acl.New(acl.AllowEveryone(acl.Execute)),
				Base: dispatch.Binding{Owner: "b", Handler: noop},
			}); err != nil {
				res.Err = err
				return res
			}
			imports[i] = p
		}
		if _, err := sys.AddPrincipal("vendor", "lo"); err != nil {
			res.Err = err
			return res
		}
		tok, err := sys.Registry().IssueToken("vendor")
		if err != nil {
			res.Err = err
			return res
		}
		seq := 0
		perLink := measure(defaultMinDur, func(n int) {
			for i := 0; i < n; i++ {
				m := secext.Manifest{
					Name:      "e" + strconv.Itoa(seq),
					Principal: "vendor", Token: tok,
					Imports: imports,
					Code:    func() secext.Extension { return linkExt{} },
				}
				seq++
				if _, err := sys.Loader().Load(m); err != nil {
					panic(err)
				}
			}
		})
		t.add(strconv.Itoa(count), ns(perLink), ns(perLink/float64(count)))
	}
	res.setTable(t)
	return res
}

// E7 measures the end-to-end null-call overhead of mediation and its
// ablations.
func E7() Result {
	res := Result{ID: "E7", Title: "Null service call: mediation and audit ablations"}
	sys, err := core.NewSystem(core.Options{
		Levels: []string{"lo", "hi"}, AuditCapacity: 4096,
	})
	if err != nil {
		res.Err = err
		return res
	}
	noop := func(ctx *subject.Context, arg any) (any, error) { return nil, nil }
	if err := sys.RegisterService(core.ServiceSpec{
		Path: "/null", ACL: acl.New(acl.AllowEveryone(acl.Execute)),
		Base: dispatch.Binding{Owner: "b", Handler: noop},
	}); err != nil {
		res.Err = err
		return res
	}
	if _, err := sys.AddPrincipal("p", "lo"); err != nil {
		res.Err = err
		return res
	}
	ctx, err := sys.NewContext("p")
	if err != nil {
		res.Err = err
		return res
	}
	t := &table{header: []string{"variant", "ns/op", "overhead vs raw"}}

	raw := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := sys.Dispatcher().Invoke("/null", ctx, nil); err != nil {
				panic(err)
			}
		}
	})
	t.add("raw dispatch (no mediation)", ns(raw), "1.0x")

	sys.Audit().SetEnabled(false)
	medOff := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := sys.Call(ctx, "/null", nil); err != nil {
				panic(err)
			}
		}
	})
	t.add("mediated, audit off", ns(medOff), ratio(medOff, raw))

	sys.Audit().SetEnabled(true)
	medOn := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := sys.Call(ctx, "/null", nil); err != nil {
				panic(err)
			}
		}
	})
	t.add("mediated, audit on", ns(medOn), ratio(medOn, raw))

	sys.Audit().SetEnabled(false)
	sys.SetTrustLinkTime(true)
	linked := measure(defaultMinDur, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := sys.CallLinked(ctx, "/null", nil); err != nil {
				panic(err)
			}
		}
	})
	t.add("linked call, trust link time", ns(linked), ratio(linked, raw))
	res.setTable(t)
	return res
}

func ratio(v, base float64) string {
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", v/base)
}

// E8 measures the DAC group-membership closure vs nesting depth.
func E8() Result {
	res := Result{ID: "E8", Title: "Group-entry decision vs membership nesting depth"}
	t := &table{header: []string{"nesting depth", "check via group entry"}}
	for _, depth := range []int{1, 2, 4, 8, 16} {
		sys, err := core.NewSystem(core.Options{Levels: []string{"lo"}, DisableAudit: true})
		if err != nil {
			res.Err = err
			return res
		}
		reg := sys.Registry()
		if _, err := sys.AddPrincipal("alice", "lo"); err != nil {
			res.Err = err
			return res
		}
		// g0 <- g1 <- ... <- g(depth-1); alice in g0; entry names the
		// outermost group.
		for i := 0; i < depth; i++ {
			if _, err := reg.Apply(principal.AddGroup("g" + strconv.Itoa(i))); err != nil {
				res.Err = err
				return res
			}
		}
		if _, err := reg.Apply(principal.AddMember("g0", "alice")); err != nil {
			res.Err = err
			return res
		}
		for i := 1; i < depth; i++ {
			if _, err := reg.Apply(principal.AddMember("g"+strconv.Itoa(i), "g"+strconv.Itoa(i-1))); err != nil {
				res.Err = err
				return res
			}
		}
		a := acl.New(acl.AllowGroup("g"+strconv.Itoa(depth-1), acl.Read))
		ctx, err := sys.NewContext("alice")
		if err != nil {
			res.Err = err
			return res
		}
		m := measure(defaultMinDur, func(n int) {
			for i := 0; i < n; i++ {
				if !a.Check(ctx, acl.Read) {
					panic("deny")
				}
			}
		})
		t.add(strconv.Itoa(depth), ns(m))
	}
	res.setTable(t)
	return res
}

var _ = time.Now // keep the time import obvious for measure
