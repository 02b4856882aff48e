package monitor

import (
	"fmt"
	"sync"
	"testing"
)

// scripted is a test guard with a fixed verdict.
type scripted struct {
	name  string
	allow bool
	calls int
}

func (g *scripted) Name() string { return g.name }
func (g *scripted) Check(Request) Verdict {
	g.calls++
	if g.allow {
		return Allow()
	}
	return Deny(g.name, "scripted denial by "+g.name)
}

// statefulGuard is an always-allow guard that declares mutable state.
type statefulGuard struct{ scripted }

func (*statefulGuard) Stateful() bool { return true }

func TestEmptyPipelineAllows(t *testing.T) {
	p := NewPipeline()
	if v := p.Check(Request{}); !v.Allow {
		t.Fatalf("empty pipeline denied: %+v", v)
	}
	if p.Depth() != 0 || !p.Cacheable() {
		t.Errorf("Depth=%d Cacheable=%v; want 0, true", p.Depth(), p.Cacheable())
	}
}

func TestShortCircuitDeny(t *testing.T) {
	a := &scripted{name: "a", allow: true}
	b := &scripted{name: "b", allow: false}
	c := &scripted{name: "c", allow: true}
	p := NewPipeline(a, b, c)

	v := p.Check(Request{})
	if v.Allow || v.Guard != "b" || v.Reason != "scripted denial by b" {
		t.Fatalf("verdict = %+v; want b's denial", v)
	}
	if a.calls != 1 || b.calls != 1 || c.calls != 0 {
		t.Errorf("calls = %d/%d/%d; want 1/1/0 (short-circuit)", a.calls, b.calls, c.calls)
	}
}

func TestExplainRunsEveryGuard(t *testing.T) {
	a := &scripted{name: "a", allow: true}
	b := &scripted{name: "b", allow: false}
	c := &scripted{name: "c", allow: true}
	p := NewPipeline(a, b, c)

	vs := p.Current().Explain(Request{})
	if len(vs) != 3 {
		t.Fatalf("Explain returned %d verdicts", len(vs))
	}
	if !vs[0].Allow || vs[0].Guard != "a" {
		t.Errorf("vs[0] = %+v", vs[0])
	}
	if vs[1].Allow || vs[1].Guard != "b" {
		t.Errorf("vs[1] = %+v", vs[1])
	}
	if !vs[2].Allow || vs[2].Guard != "c" {
		t.Errorf("vs[2] = %+v", vs[2])
	}
	if c.calls != 1 {
		t.Errorf("Explain skipped c after b's denial")
	}
}

// TestExplainOpShortCircuitPoint: ExplainOp runs every guard like
// Explain but additionally names the guard whose denial would have
// ended a production Check.
func TestExplainOpShortCircuitPoint(t *testing.T) {
	a := &scripted{name: "a", allow: true}
	b := &scripted{name: "b", allow: false}
	c := &scripted{name: "c", allow: false}
	p := NewPipeline(a, b, c)

	vs, sc := p.Current().ExplainOp(Request{})
	if len(vs) != 3 {
		t.Fatalf("ExplainOp returned %d verdicts", len(vs))
	}
	if sc != 1 {
		t.Errorf("short-circuit = %d, want 1 (b denies first)", sc)
	}
	if c.calls != 1 {
		t.Error("ExplainOp skipped c after b's denial")
	}
	// Production Check agrees with the reported short-circuit point.
	if v := p.Check(Request{}); v.Guard != vs[sc].Guard {
		t.Errorf("Check decided at %q, ExplainOp reported %q", v.Guard, vs[sc].Guard)
	}

	// All-allow stacks report no short-circuit.
	if vs, sc := NewPipeline(a).Current().ExplainOp(Request{}); sc != -1 || len(vs) != 1 {
		t.Errorf("all-allow ExplainOp = (%d verdicts, sc %d), want (1, -1)", len(vs), sc)
	}
	// The empty stack allows vacuously.
	if vs, sc := NewPipeline().Current().ExplainOp(Request{}); sc != -1 || len(vs) != 0 {
		t.Errorf("empty ExplainOp = (%d verdicts, sc %d), want (0, -1)", len(vs), sc)
	}
}

func TestInstallRemoveAndGeneration(t *testing.T) {
	p := NewPipeline(&scripted{name: "base", allow: true})
	s0 := p.Current()
	if v := p.Check(Request{}); !v.Allow {
		t.Fatal("baseline denied")
	}

	veto := &scripted{name: "veto", allow: false}
	remove := p.Install(veto)
	if p.Current() == s0 {
		t.Error("Install did not publish a new stack")
	}
	if v := p.Check(Request{}); v.Allow {
		t.Error("installed veto not consulted")
	}
	if got := p.Guards(); len(got) != 2 || got[1] != "veto" {
		t.Errorf("Guards = %v", got)
	}

	s1 := p.Current()
	remove()
	if p.Current() == s1 {
		t.Error("remove did not publish a new stack")
	}
	if v := p.Check(Request{}); !v.Allow {
		t.Error("removed veto still denying")
	}
	// remove is idempotent: calling it again must not republish or panic.
	s2 := p.Current()
	remove()
	if p.Current() != s2 {
		t.Error("second remove published a new stack")
	}
}

func TestRemoveDeletesOnlyOneIdentity(t *testing.T) {
	// Two installs of distinct guards with equal behavior: removing the
	// first must leave the second in place.
	a := &scripted{name: "dup", allow: false}
	b := &scripted{name: "dup", allow: false}
	p := NewPipeline()
	removeA := p.Install(a)
	p.Install(b)
	removeA()
	if got := p.Depth(); got != 1 {
		t.Fatalf("Depth after removing one of two = %d", got)
	}
	if v := p.Check(Request{}); v.Allow || b.calls == 0 {
		t.Error("surviving guard not consulted")
	}
}

func TestStatefulDisablesCaching(t *testing.T) {
	pure := &scripted{name: "pure", allow: true}
	p := NewPipeline(pure)
	if !p.Cacheable() {
		t.Fatal("pure pipeline must be cacheable")
	}
	sf := &statefulGuard{scripted{name: "meter", allow: true}}
	remove := p.Install(sf)
	if p.Cacheable() {
		t.Fatal("stateful guard must disable caching")
	}
	remove()
	if !p.Cacheable() {
		t.Fatal("caching must return once the stateful guard is gone")
	}
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{
		OpAccess: "access", OpTraverse: "traverse",
		OpContainerBind: "container-bind", OpContainerUnbind: "container-unbind",
		OpCreate: "create", OpRelabel: "relabel", OpAdmit: "admit",
		Op(99): "op?",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

// pureAllow is a guard with no mutable state, safe for the race test.
type pureAllow struct{ name string }

func (g pureAllow) Name() string        { return g.name }
func (pureAllow) Check(Request) Verdict { return Allow() }

// TestConcurrentCheckAndInstall is the -race proof for the copy-on-
// write stack: checks proceed lock-free while guards come and go.
func TestConcurrentCheckAndInstall(t *testing.T) {
	p := NewPipeline(pureAllow{name: "base"})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					p.Check(Request{})
					p.Cacheable()
					p.Current()
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		remove := p.Install(pureAllow{name: fmt.Sprintf("g%d", i)})
		remove()
	}
	close(stop)
	wg.Wait()
	if p.Depth() != 1 {
		t.Errorf("Depth = %d after balanced install/remove", p.Depth())
	}
}

// TestStackPinning: Current returns an immutable stack — installs
// publish successors, and a pinned stack keeps its guard list and
// cacheability while the pipeline moves on. This is the property the policy epoch relies on.
func TestStackPinning(t *testing.T) {
	a := &scripted{name: "a", allow: true}
	p := NewPipeline(a)
	s0 := p.Current()
	if s0.Depth() != 1 || !s0.Cacheable() {
		t.Fatalf("initial stack: depth %d cacheable %v", s0.Depth(), s0.Cacheable())
	}

	remove := p.Install(&statefulGuard{scripted{name: "meter", allow: false}})
	s1 := p.Current()
	if s1 == s0 {
		t.Fatal("Install did not publish a new stack")
	}
	if s1.Cacheable() || s1.Depth() != 2 {
		t.Fatalf("installed stack: cacheable %v depth %d", s1.Cacheable(), s1.Depth())
	}
	// The pinned old stack still allows and still reports itself pure.
	if v := s0.Check(Request{}); !v.Allow {
		t.Fatalf("pinned stack changed verdict: %+v", v)
	}
	if !s0.Cacheable() || s0.Depth() != 1 {
		t.Fatal("pinned stack mutated by a later install")
	}
	// The new stack denies through the meter.
	if v := s1.Check(Request{}); v.Allow || v.Guard != "meter" {
		t.Fatalf("new stack verdict: %+v", v)
	}
	if got := s1.Guards(); len(got) != 2 || got[0] != "a" || got[1] != "meter" {
		t.Fatalf("Guards() = %v", got)
	}
	remove()
	if p.Current() == s1 {
		t.Fatal("remove did not publish a new stack")
	}
}

// TestChangeHookSeesEveryPublication: the hook receives each newly
// published stack, in order, exactly once per change — the contract
// the name server's PublishStack transition depends on.
func TestChangeHookSeesEveryPublication(t *testing.T) {
	p := NewPipeline(&scripted{name: "a", allow: true})
	var got []int
	p.SetChangeHook(func(s *Stack) { got = append(got, s.Depth()) })

	remove := p.Install(&scripted{name: "b", allow: true})
	remove()
	remove() // idempotent: the second call must not republish
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("hook saw stack depths %v, want [2 1]", got)
	}
	// Clearing the hook stops deliveries.
	p.SetChangeHook(nil)
	p.Install(&scripted{name: "c", allow: true})
	if len(got) != 2 {
		t.Fatalf("cleared hook still fired: %v", got)
	}
}

// TestStackExplainAndTracedNilTrace: Stack.Explain reports every guard
// in order, and CheckTraced with a nil trace degrades to Check on both
// the allow and the deny path.
func TestStackExplainAndTracedNilTrace(t *testing.T) {
	a := &scripted{name: "a", allow: true}
	b := &scripted{name: "b", allow: false}
	s := NewPipeline(a, b).Current()

	vs := s.Explain(Request{})
	if len(vs) != 2 || vs[0].Guard != "a" || !vs[0].Allow || vs[1].Guard != "b" || vs[1].Allow {
		t.Fatalf("Explain = %+v", vs)
	}
	if v := s.CheckTraced(Request{}, nil); v.Allow || v.Guard != "b" {
		t.Fatalf("CheckTraced deny = %+v", v)
	}
	allowStack := NewPipeline(a).Current()
	if v := allowStack.CheckTraced(Request{}, nil); !v.Allow {
		t.Fatalf("CheckTraced allow = %+v", v)
	}
	// A freshly built pipeline's current stack takes the same path.
	if v := NewPipeline(a, b).Current().CheckTraced(Request{}, nil); v.Allow || v.Guard != "b" {
		t.Fatalf("Pipeline.CheckTraced = %+v", v)
	}
}
