// Package monitor is the policy half of the reference monitor: an
// ordered pipeline of pluggable guards that decide access requests the
// mechanism layers (internal/names, internal/core, internal/dispatch)
// produce.
//
// The paper's model layers mandatory control over discretionary control
// and funnels every call, extend, and data access through one monitor
// (§2.1–§2.2). Before this package existed that layering was an
// implementation accident — DAC and MAC were evaluated inline by the
// name server. Here the layering is explicit structure: the name server
// resolves names and describes the object it found (ACL, class,
// multilevel flag); each Guard renders an independent verdict on the
// request; the Pipeline composes them with short-circuit deny. The
// default stack is [dacguard, macguard], reproducing the paper's
// "mandatory on top of discretionary" order, and new policies are new
// guards, not name-server patches.
//
// Concurrency and cost: the guard stack is copy-on-write behind an
// atomic pointer, so Check takes no locks, and Request/Verdict travel
// by value, so a decision allocates nothing. Installing or removing a
// guard republishes the name server's policy epoch, whose version keys
// the decision cache, so every cached verdict computed under the old
// stack dies the moment the stack changes.
//
// Guards whose verdicts depend on mutable internal state (budgets,
// rates) must declare themselves by implementing Stateful; the pipeline
// then reports itself non-cacheable and the mediation fast path is
// bypassed, so such guards see every request rather than only cache
// misses.
package monitor

import (
	"sync"
	"sync/atomic"
	"time"

	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/telemetry"
)

// Op tells guards which mechanism operation produced a request. Most
// requests are plain OpAccess checks; the remaining values mark the
// operations whose rules the paper special-cases (multilevel
// containers, node creation, relabeling) and the dispatcher's
// admissibility question.
type Op uint8

const (
	// OpAccess checks the requested modes on the target object: the
	// common case (CheckAccess, List, SetACL, the Delete and Write legs
	// of Unbind and Rename, GetACL with AnyOf set).
	OpAccess Op = iota
	// OpTraverse checks visibility of an interior node during path
	// resolution (list on every node strictly above the target, §2.3).
	OpTraverse
	// OpContainerBind checks adding an entry to a multilevel container:
	// the DAC write mode applies, the MAC no-write-down rule is waived,
	// but the subject must still dominate the container to see it.
	OpContainerBind
	// OpContainerUnbind checks removing an entry from a multilevel
	// container: DAC write only, no MAC rule at all.
	OpContainerUnbind
	// OpCreate checks the class a new node is being labeled with
	// (Request.NewClass): a subject may not create objects below its own
	// class — that would be a write-down channel.
	OpCreate
	// OpRelabel checks moving the object to Request.NewClass: a read of
	// the old label and a write of the new one.
	OpRelabel
	// OpAdmit asks whether a caller at Request.Class may use a dispatch
	// binding whose static class is Object.Class. The request carries no
	// Subject and no ACL: the discretionary execute check already
	// happened on the service node.
	OpAdmit
)

var opNames = [...]string{
	"access", "traverse", "container-bind", "container-unbind",
	"create", "relabel", "admit",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// Object is the mechanism's description of the node a request targets.
// The name server fills it from the resolved node; guards read it and
// decide.
type Object struct {
	// Path is the absolute name of the object.
	Path string
	// ACL is the object's discretionary state as of the immutable
	// name-space snapshot the request was resolved against; it cannot
	// change while guards read it. It may be nil only for requests
	// that carry no discretionary question (OpAdmit).
	ACL *acl.ACL
	// Class is the object's mandatory security class (for OpAdmit, the
	// binding's static class).
	Class lattice.Class
	// Multilevel marks multilevel containers (names.Node.Multilevel).
	Multilevel bool
}

// Request is one access-control question. It travels by value so that a
// decision on the mediation path performs no heap allocation; guards
// must not retain pointers derived from it beyond the call.
//
// Requests produced on behalf of the mechanism itself (OpAdmit) carry a
// nil Subject; guards keyed by subject identity must pass those through.
type Request struct {
	// Subject is the requesting principal (nil for OpAdmit).
	Subject acl.Subject
	// Class is the subject's current security class.
	Class lattice.Class
	// Object describes the target node.
	Object Object
	// Modes are the requested access modes: the conjunctive
	// discretionary question and, simultaneously, the flow modes the
	// mandatory rules apply to.
	Modes acl.Mode
	// AnyOf, when non-zero, replaces the conjunctive discretionary
	// check: the subject needs at least one of these modes (GetACL's
	// "read or administrate"). The mandatory rules still use Modes.
	AnyOf acl.Mode
	// NewClass is the class being introduced by the operation: the class
	// requested for a new node (OpCreate) or the class the object would
	// move to (OpRelabel). The two ops share the field — no request
	// carries both — which keeps the by-value Request a cache-friendly
	// size on the mediation path.
	NewClass lattice.Class
	// Members is the group-membership relation of the policy epoch the
	// request was resolved against (the epoch's frozen principal
	// registry). Guards that evaluate group ACL entries must consult it
	// rather than Subject.MemberOf, so the whole decision reads one
	// consistent version of the membership relation. Nil when the caller
	// has no epoch pinned; guards then fall back to the subject.
	Members acl.Membership
	// Op is the operation that produced the request.
	Op Op
}

// Verdict is one guard's answer (or the pipeline's combined answer).
type Verdict struct {
	// Guard names the guard that produced the verdict; empty for the
	// pipeline's combined allow.
	Guard string
	// Allow is the decision.
	Allow bool
	// Reason explains a denial ("acl: ...", "mac: ...", "quota: ...");
	// empty on allow.
	Reason string
}

// Allow is the affirmative verdict guards return on no objection.
func Allow() Verdict { return Verdict{Allow: true} }

// Deny builds a denying verdict for the named guard.
func Deny(guard, reason string) Verdict {
	return Verdict{Guard: guard, Allow: false, Reason: reason}
}

// Guard is one composable policy module.
//
// Check must be a function of the request and (for Stateful guards) the
// guard's own state: it must not call back into the name server or the
// reference monitor, because the mechanism invokes the pipeline while
// holding its own locks.
type Guard interface {
	// Name identifies the guard in verdicts and diagnostics.
	Name() string
	// Check renders the guard's verdict on one request.
	Check(Request) Verdict
}

// Stateful is optionally implemented by guards whose verdicts depend on
// mutable internal state (budgets, rate windows). A pipeline containing
// a stateful guard reports Cacheable() == false, which makes the name
// server bypass the decision cache so the guard sees every request.
type Stateful interface {
	Stateful() bool
}

// Stack is one immutable configuration of the pipeline: the ordered
// guard list and its cacheability. A Stack never changes after
// publication, so evaluating one is pure — the policy epoch pins the
// Stack in force when the epoch was published, and every decision under
// that epoch runs exactly that guard list even while Install/remove
// republish the pipeline.
type Stack struct {
	guards    []Guard
	cacheable bool
}

func newStack(guards []Guard) *Stack {
	s := &Stack{guards: guards, cacheable: true}
	for _, g := range guards {
		if sf, ok := g.(Stateful); ok && sf.Stateful() {
			s.cacheable = false
		}
	}
	return s
}

// Check runs the stack over one request: the first denial wins; if no
// guard objects the request is allowed. It is lock-free and
// allocation-free.
func (s *Stack) Check(r Request) Verdict {
	for _, g := range s.guards {
		if v := g.Check(r); !v.Allow {
			return v
		}
	}
	return Verdict{Allow: true}
}

// CheckTraced is Check with per-guard observability: each guard's
// verdict and evaluation time are recorded as a span on tr, and the
// denying guard's name is filled into the combined verdict. tr may be
// nil, in which case it degrades to Check plus the clock reads.
func (s *Stack) CheckTraced(r Request, tr *telemetry.ActiveTrace) Verdict {
	for _, g := range s.guards {
		start := time.Now()
		v := g.Check(r)
		d := time.Since(start)
		tr.Guard(g.Name(), v.Allow, v.Reason, d)
		if !v.Allow {
			if v.Guard == "" {
				v.Guard = g.Name()
			}
			return v
		}
	}
	return Verdict{Allow: true}
}

// Explain runs every guard regardless of earlier denials and returns
// all verdicts in stack order — the diagnostic view of a decision.
// Unlike Check it allocates; tooling only.
func (s *Stack) Explain(r Request) []Verdict {
	out := make([]Verdict, 0, len(s.guards))
	for _, g := range s.guards {
		v := g.Check(r)
		if v.Allow && v.Guard == "" {
			v.Guard = g.Name()
		}
		out = append(out, v)
	}
	return out
}

// ExplainOp is Explain plus the short-circuit point: it runs every
// guard and additionally reports the index of the guard whose denial
// would have ended a production Check (-1 when every guard allows).
// Check stops at that guard; ExplainOp records what the rest would
// have said instead of short-circuiting silently. Tooling only.
func (s *Stack) ExplainOp(r Request) (verdicts []Verdict, shortCircuit int) {
	verdicts = s.Explain(r)
	shortCircuit = -1
	for i, v := range verdicts {
		if !v.Allow {
			shortCircuit = i
			break
		}
	}
	return verdicts, shortCircuit
}

// Cacheable reports whether every guard in this stack is pure (its
// verdict a function of the request and the protection state alone).
func (s *Stack) Cacheable() bool { return s.cacheable }

// Depth returns the number of guards in this stack.
func (s *Stack) Depth() int { return len(s.guards) }

// At returns the guard at position i in stack order. The epoch compiler
// uses it to recognize the default [dac, mac] stack by type, which is
// what licenses the compiled bitset/dominance fast path.
func (s *Stack) At(i int) Guard { return s.guards[i] }

// Guards returns the names of the stacked guards, in order.
func (s *Stack) Guards() []string {
	out := make([]string, len(s.guards))
	for i, g := range s.guards {
		out[i] = g.Name()
	}
	return out
}

// Pipeline composes an ordered guard stack with short-circuit deny: the
// first guard that objects decides, later guards never run. An empty
// pipeline allows everything — it is pure mechanism with no policy,
// which is exactly what a name server with no monitor should be.
//
// The pipeline is safe for concurrent use. Check is lock-free and
// allocation-free; Install and the remove functions it returns take a
// mutex and publish a new stack.
type Pipeline struct {
	mu       sync.Mutex
	stack    atomic.Pointer[Stack]
	onChange func(*Stack) // guarded by mu
}

// NewPipeline builds a pipeline over the given guards, in order.
func NewPipeline(guards ...Guard) *Pipeline {
	p := &Pipeline{}
	p.stack.Store(newStack(append([]Guard(nil), guards...)))
	return p
}

// Current returns the currently published guard stack: one atomic load,
// no locks. The returned Stack is immutable and stays valid forever;
// the name server pins it in each policy epoch so decisions under that
// epoch run a consistent guard list.
func (p *Pipeline) Current() *Stack { return p.stack.Load() }

// SetChangeHook installs a function that receives every newly published
// Stack. The name server wires it to its PublishStack epoch transition,
// so installing or removing a guard republishes the policy epoch — and
// kills every cached verdict — before the installer regains control. A
// nil hook clears it. The hook runs with the pipeline mutex held, so
// publications reach it in order.
func (p *Pipeline) SetChangeHook(fn func(*Stack)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onChange = fn
}

// publishLocked installs next as the current stack and reports it to
// the hook. Caller holds p.mu.
func (p *Pipeline) publishLocked(next *Stack) {
	p.stack.Store(next)
	if p.onChange != nil {
		p.onChange(next)
	}
}

// Check runs the current stack over one request: the first denial wins;
// if no guard objects the request is allowed.
func (p *Pipeline) Check(r Request) Verdict {
	return p.stack.Load().Check(r)
}

// Install appends a guard to the stack and returns a function that
// removes exactly that guard again. Both directions publish a new
// stack through the change hook, so cached verdicts computed under the
// old stack are dead the moment the change lands.
func (p *Pipeline) Install(g Guard) (remove func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.stack.Load().guards
	next := make([]Guard, len(cur), len(cur)+1)
	copy(next, cur)
	next = append(next, g)
	p.publishLocked(newStack(next))

	var once sync.Once
	return func() {
		once.Do(func() {
			p.mu.Lock()
			defer p.mu.Unlock()
			cur := p.stack.Load().guards
			next := make([]Guard, 0, len(cur))
			removed := false
			for _, have := range cur {
				if !removed && have == g {
					removed = true
					continue
				}
				next = append(next, have)
			}
			p.publishLocked(newStack(next))
		})
	}
}

// Cacheable reports whether every guard in the current stack is pure
// (its verdict a function of the request and the protection state
// alone). Stateful guards make the pipeline non-cacheable.
func (p *Pipeline) Cacheable() bool { return p.stack.Load().cacheable }

// Depth returns the number of guards in the stack.
func (p *Pipeline) Depth() int { return p.stack.Load().Depth() }

// Guards returns the names of the stacked guards, in order.
func (p *Pipeline) Guards() []string { return p.stack.Load().Guards() }
