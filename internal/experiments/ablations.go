package experiments

import (
	"strconv"

	"secext/internal/acl"
	"secext/internal/baseline/ntacl"
	"secext/internal/core"
	"secext/internal/dispatch"
	"secext/internal/names"
	"secext/internal/subject"
)

// A1 ablates the ACL conflict-resolution discipline: deny-overrides
// (internal/acl — must scan every entry) versus NT-style ordered
// first-match (internal/baseline/ntacl — can stop at the first decisive
// entry). The cost of the conservative choice is the gap between the
// two columns as deny entries accumulate.
func A1() Result {
	res := Result{ID: "A1", Title: "Ablation: deny-overrides vs ordered first-match (64-entry ACL)"}
	t := &table{header: []string{"deny entries", "deny-overrides (secext)", "first-match (nt)"}}
	const size = 64
	for _, denies := range []int{0, 16, 32, 48} {
		// secext ACL: subject's allow entry sits at the end; deny
		// entries target other principals.
		a := acl.New()
		for i := 0; i < denies; i++ {
			a.Add(acl.Deny("blocked"+strconv.Itoa(i), acl.Read))
		}
		for i := denies; i < size-1; i++ {
			a.Add(acl.Allow("p"+strconv.Itoa(i), acl.Read))
		}
		a.Add(acl.Allow("target", acl.Read))
		sub := aclSubject("target")
		mSec := measure(defaultMinDur, func(n int) {
			for i := 0; i < n; i++ {
				a.Check(sub, acl.Read)
			}
		})

		// NT ACL with the same shape; first-match can stop as soon as
		// the target's allow is hit, which ordered-ACL admins exploit
		// by putting hot entries first — here it is last, the worst
		// case, to keep the comparison honest.
		nt := ntacl.New()
		var entries []ntacl.Entry
		for i := 0; i < denies; i++ {
			entries = append(entries, ntacl.Entry{
				Subject: "blocked" + strconv.Itoa(i), Deny: true, Rights: ntacl.Read,
			})
		}
		for i := denies; i < size-1; i++ {
			entries = append(entries, ntacl.Entry{
				Subject: "p" + strconv.Itoa(i), Rights: ntacl.Read,
			})
		}
		entries = append(entries, ntacl.Entry{Subject: "target", Rights: ntacl.Read})
		nt.SetACL("/o", entries...)
		mNT := measure(defaultMinDur, func(n int) {
			for i := 0; i < n; i++ {
				nt.Check("target", "/o", ntacl.Read)
			}
		})
		t.add(strconv.Itoa(denies), ns(mSec), ns(mNT))
	}
	res.setTable(t)
	return res
}

// A2 ablates the audit ring capacity: the ring is overwritten in place,
// so capacity should not affect the mediated-call cost — retaining more
// history is free at decision time.
func A2() Result {
	res := Result{ID: "A2", Title: "Ablation: audit ring capacity vs mediated call cost"}
	t := &table{header: []string{"ring capacity", "mediated call"}}
	for _, capacity := range []int{16, 1024, 65536} {
		sys, err := core.NewSystem(core.Options{
			Levels: []string{"lo"}, AuditCapacity: capacity,
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
		m := measure(defaultMinDur, func(n int) {
			for i := 0; i < n; i++ {
				if _, err := sys.Call(ctx, "/null", nil); err != nil {
					panic(err)
				}
			}
		})
		t.add(strconv.Itoa(capacity), ns(m))
	}
	res.setTable(t)
	return res
}

// A3 ablates the multilevel-container waiver: binding into a multilevel
// directory takes a slightly different check path (DAC write + MAC
// read of the container) than binding into a regular directory (full
// DAC+MAC write); the ablation confirms the waiver costs nothing.
func A3() Result {
	res := Result{ID: "A3", Title: "Ablation: bind into regular vs multilevel container"}
	sys, err := core.NewSystem(core.Options{Levels: []string{"lo", "hi"}, DisableAudit: true})
	if err != nil {
		res.Err = err
		return res
	}
	open := acl.New(acl.AllowEveryone(acl.List | acl.Write | acl.Delete))
	if _, err := sys.CreateNode(core.NodeSpec{
		Path: "/plain", Kind: names.KindDirectory, ACL: open,
	}); err != nil {
		res.Err = err
		return res
	}
	if _, err := sys.CreateNode(core.NodeSpec{
		Path: "/ml", Kind: names.KindDirectory, ACL: open, Multilevel: true,
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
	bot, _ := sys.Lattice().Bottom()
	fileACL := acl.New(acl.AllowEveryone(acl.Delete))
	bindCycle := func(dir string) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if _, err := sys.Apply(ctx, names.Bind(dir, names.BindSpec{
					Name: "f", Kind: names.KindFile, ACL: fileACL, Class: bot,
				})); err != nil {
					panic(err)
				}
				if _, err := sys.Apply(ctx, names.Unbind(dir+"/f")); err != nil {
					panic(err)
				}
			}
		}
	}
	t := &table{header: []string{"container", "bind+unbind"}}
	t.add("regular directory", ns(measure(defaultMinDur, bindCycle("/plain"))))
	t.add("multilevel directory", ns(measure(defaultMinDur, bindCycle("/ml"))))
	res.setTable(t)
	return res
}
