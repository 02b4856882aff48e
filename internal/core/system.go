// Package core implements the paper's primary contribution: a single
// central facility that provides naming and protection for an entire
// extensible system ("Security for Extensible Systems", Grimm & Bershad,
// HotOS 1997, §2–3).
//
// The System type is a reference monitor. Every security-relevant
// operation — calling a service, extending a service, resolving a name,
// touching data, linking an extension, changing protection state —
// funnels through one check path that combines the discretionary
// decision (ACLs with execute/extend modes, §2.1) and the mandatory
// decision (the trust-level × category lattice, §2.2) over the single
// hierarchical name space (§2.3), and records an audit event either way.
// This is deliberate economy of mechanism: the paper's criticism of
// Java's "three prongs" is that distributing enforcement makes the
// security of the whole unarguable.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"secext/internal/acl"
	"secext/internal/audit"
	"secext/internal/decision"
	"secext/internal/dispatch"
	"secext/internal/extension"
	"secext/internal/lattice"
	"secext/internal/monitor"
	"secext/internal/monitor/dacguard"
	"secext/internal/monitor/macguard"
	"secext/internal/names"
	"secext/internal/principal"
	"secext/internal/provenance"
	"secext/internal/subject"
	"secext/internal/telemetry"
)

// Errors returned by the reference monitor.
var (
	ErrConfig = errors.New("core: invalid configuration")
)

// System is the host the extension loader links against.
var _ extension.Host = (*System)(nil)

// Options configure a System.
type Options struct {
	// Levels are the trust levels, lowest first. Required (>= 1).
	Levels []string
	// Categories are the compartment labels. May be empty.
	Categories []string
	// AuditCapacity bounds the in-memory audit ring (default 1024).
	AuditCapacity int
	// DisableAudit starts the system with auditing off (the E7
	// ablation); it can be re-enabled at runtime via Audit().
	DisableAudit bool
	// TrustLinkTime makes capability invocations skip the per-call
	// DAC/MAC re-check, relying on the loader's link-time checks (the
	// SPIN discipline, measured by E6/E7). Default false: full
	// mediation on every call.
	TrustLinkTime bool
	// DisableDecisionCache turns off the mediation fast path: every
	// check takes the full resolve-and-verify walk. Default false — the
	// cache preserves full-mediation semantics (generation-based
	// invalidation means a cached verdict is provably computed against
	// the current protection state), so there is no security reason to
	// disable it; the switch exists for experiments (E11) and debugging.
	DisableDecisionCache bool
	// Guards are extra policy modules stacked after the built-in
	// discretionary and mandatory guards in the reference monitor's
	// pipeline (internal/monitor). They run in order; the first denial
	// wins. More guards can be installed later via Monitor().Install.
	Guards []monitor.Guard
	// Telemetry configures the observability subsystem: mediation
	// counters, sampled latency histograms, and decision traces. The
	// zero value enables the default (metrics on, traces sampled 1/256);
	// Mode telemetry.ModeOff disables it entirely, leaving the mediation
	// path exactly as it was before telemetry existed. Kinds is filled in
	// by NewSystem.
	Telemetry telemetry.Options
}

// System is the reference monitor and the owner of every protection-
// relevant data structure. It is safe for concurrent use.
type System struct {
	lat    *lattice.Lattice
	reg    *principal.Registry
	ns     *names.Server
	disp   *dispatch.Dispatcher
	log    *audit.Log
	loader *extension.Loader
	pipe   *monitor.Pipeline
	tel    *telemetry.Telemetry

	trustLinkTime atomic.Bool
}

// NewSystem builds an empty system: a lattice from the option universe,
// an empty principal registry, a name space whose root is at the bottom
// class and listable by everyone, and an empty dispatcher.
func NewSystem(opts Options) (*System, error) {
	if len(opts.Levels) == 0 {
		return nil, fmt.Errorf("%w: at least one trust level required", ErrConfig)
	}
	lat, err := lattice.NewWithUniverse(opts.Levels, opts.Categories)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	bottom, err := lat.Bottom()
	if err != nil {
		return nil, err
	}
	capacity := opts.AuditCapacity
	if capacity == 0 {
		capacity = 1024
	}
	rootACL := acl.New(acl.AllowEveryone(acl.List))
	s := &System{
		lat:  lat,
		reg:  principal.NewRegistry(lat),
		ns:   names.NewServer(lat, rootACL, bottom),
		disp: dispatch.New(),
		log:  audit.NewLog(capacity),
	}

	// The reference monitor's policy pipeline: the paper's layering —
	// discretionary first, mandatory on top — plus any caller-supplied
	// guards. Name-space checks, data checks, and dispatcher admission
	// all consult this one stack.
	stack := append([]monitor.Guard{dacguard.New(), macguard.New()}, opts.Guards...)
	s.pipe = monitor.NewPipeline(stack...)
	s.ns.SetPipeline(s.pipe)

	// Observability: counters keyed by the audit kind vocabulary, guard
	// series pre-registered so /metrics exposes every guard from the
	// first scrape, and snapshot wiring for the stats other layers keep
	// themselves. ModeOff leaves tel nil — every instrumentation site is
	// nil-safe, so a disabled system pays one predictable branch.
	telOpts := opts.Telemetry
	telOpts.Kinds = audit.KindNames()
	s.tel = telemetry.New(telOpts)
	s.tel.RegisterGuards(s.pipe.Guards()...)
	s.tel.SetAuditStats(s.log.Stats)
	if s.tel != nil {
		s.disp.SetAdmissionObserver(func(_ string, admitted bool) {
			s.tel.Admission(admitted)
		})
	}

	// Host-privileged *Unchecked operations bypass the pipeline; record
	// each one as an administrative bypass event so the audit trail
	// shows exactly where trusted code stepped around mediation.
	s.ns.SetAdminHook(func(op, path string, err error) {
		reason := "bypassed mediation"
		if err != nil {
			reason = err.Error()
		}
		s.log.RecordBypass(audit.Event{
			Kind: audit.KindUnchecked, Subject: "host", Path: path,
			Op: op, Allowed: err == nil, Reason: reason,
		})
	})

	// Class-based handler selection (§2.2) is an admission question for
	// the same pipeline: may this caller use a binding at this static
	// class? The dispatcher itself stays policy-free.
	s.disp.SetAdmission(func(caller lattice.Class, service string, static lattice.Class) bool {
		return s.pipe.Check(monitor.Request{
			Class:  caller,
			Object: monitor.Object{Path: service, Class: static},
			Op:     monitor.OpAdmit,
		}).Allow
	})

	// The epoch version is the single generation clock for cached
	// verdicts, so ANY layer whose state feeds an access decision —
	// the lattice universe, the principal/group registry, the guard
	// stack — publishes its frozen state into the policy epoch through
	// a typed transition. The lattice and pipeline hooks are wired by
	// names.NewServer/SetPipeline; attaching the registry completes the
	// epoch, so from here on one atomic load pins everything a decision
	// needs.
	s.ns.AttachRegistry(s.reg)
	s.tel.SetNamesStats(s.ns.Stats)
	// Decision provenance: the epoch-transition journal and the explain
	// engine back /debug/epochs, /debug/explain, and the remote
	// EXPLAIN/EPOCHS commands.
	s.tel.SetEpochJournal(s.ns.Journal)
	s.tel.SetExplain(func(subjectName, path, modes string) (string, []byte, error) {
		ex, err := s.Explain(subjectName, path, modes)
		if err != nil {
			return "", nil, err
		}
		body, err := json.Marshal(ex)
		if err != nil {
			return "", nil, err
		}
		return ex.String(), body, nil
	})

	if !opts.DisableDecisionCache {
		// The mediation fast path: memoized verdicts stamped with the
		// snapshot version they were computed against; a publish from any
		// layer makes older entries unreachable.
		cache := decision.NewCache(0)
		s.ns.SetDecisionCache(cache)
		s.tel.SetCacheStats(func() telemetry.CacheStats {
			st := cache.Stats()
			st.Invalidations = s.ns.Publishes()
			return st
		})
	}
	s.log.SetEnabled(!opts.DisableAudit)
	s.trustLinkTime.Store(opts.TrustLinkTime)
	s.loader = extension.NewLoader(s)
	return s, nil
}

// Lattice returns the system's security lattice.
func (s *System) Lattice() *lattice.Lattice { return s.lat }

// Registry returns the principal and group registry.
func (s *System) Registry() *principal.Registry { return s.reg }

// Names returns the central name server.
func (s *System) Names() *names.Server { return s.ns }

// Dispatcher returns the dynamic binding layer.
func (s *System) Dispatcher() *dispatch.Dispatcher { return s.disp }

// Monitor returns the policy pipeline every mediated operation consults.
// Use Install to stack additional guards at runtime; installing or
// removing a guard invalidates all cached verdicts.
func (s *System) Monitor() *monitor.Pipeline { return s.pipe }

// Audit returns the audit log.
func (s *System) Audit() *audit.Log { return s.log }

// Telemetry returns the observability subsystem, or nil when the system
// was built with telemetry.ModeOff. All telemetry methods are nil-safe,
// so callers may use the result unconditionally.
func (s *System) Telemetry() *telemetry.Telemetry { return s.tel }

// DecisionCache returns the mediation fast-path cache, or nil when the
// system was built with DisableDecisionCache.
func (s *System) DecisionCache() *decision.Cache { return s.ns.DecisionCache() }

// Loader returns the extension loader.
func (s *System) Loader() *extension.Loader { return s.loader }

// SetTrustLinkTime toggles the SPIN-style linked-call fast path.
func (s *System) SetTrustLinkTime(on bool) { s.trustLinkTime.Store(on) }

// TrustsLinkTime reports whether linked calls skip the per-call check.
func (s *System) TrustsLinkTime() bool { return s.trustLinkTime.Load() }

// ParseClass parses a class label against the system lattice; part of
// extension.Host.
func (s *System) ParseClass(label string) (lattice.Class, error) {
	return s.lat.ParseClass(label)
}

// Authenticate resolves a token to a principal; part of extension.Host.
func (s *System) Authenticate(token string) (*principal.Principal, error) {
	return s.reg.Authenticate(token)
}

// AddPrincipal is AddPrincipals for one name; kept for bench/.
func (s *System) AddPrincipal(name, classLabel string) (*principal.Principal, error) {
	if _, err := s.AddPrincipals(classLabel, name); err != nil {
		return nil, err
	}
	return s.reg.Principal(name)
}

// AddPrincipals is Registry.Apply(AddPrincipal...) at the class given by
// label, returning the new principals; kept for bench/.
func (s *System) AddPrincipals(classLabel string, names ...string) ([]*principal.Principal, error) {
	class, err := s.lat.ParseClass(classLabel)
	if err != nil {
		return nil, err
	}
	edits := make([]principal.Edit, len(names))
	for i, n := range names {
		edits[i] = principal.AddPrincipal(n, class)
	}
	if _, err := s.reg.Apply(edits...); err != nil {
		return nil, err
	}
	out := make([]*principal.Principal, len(names))
	for i, n := range names {
		out[i], _ = s.reg.Principal(n)
	}
	return out, nil
}

// NewContext creates a root thread of control for a registered
// principal.
func (s *System) NewContext(principalName string) (*subject.Context, error) {
	p, err := s.reg.Principal(principalName)
	if err != nil {
		return nil, err
	}
	return subject.New(p)
}

// Explain re-evaluates the decision (principal, path, modes) against
// the current policy epoch and returns the full provenance working:
// the exact ACL entry and membership chain that matched, each guard's
// verdict with the production short-circuit point, and the MAC
// dominance comparison with both classes named. Advisory tooling: the
// re-evaluation never touches the decision cache and is never audited
// as an access — callers gate it behind an administrative surface
// (secctl, /debug/explain, the remote EXPLAIN command).
func (s *System) Explain(principalName, path, modes string) (*provenance.Explanation, error) {
	ctx, err := s.NewContext(principalName)
	if err != nil {
		return nil, err
	}
	m, err := acl.ParseMode(modes)
	if err != nil {
		return nil, err
	}
	return provenance.ExplainCheck(s.ns.Current(), ctx, path, m), nil
}

// NewContextFromToken authenticates a token and creates a root context
// for the principal it names.
func (s *System) NewContextFromToken(token string) (*subject.Context, error) {
	p, err := s.reg.Authenticate(token)
	if err != nil {
		return nil, err
	}
	return subject.New(p)
}

// NodeSpec describes one name-space node for bootstrap creation.
type NodeSpec struct {
	Path  string        // absolute path of the node
	Kind  names.Kind    // node kind
	ACL   *acl.ACL      // nil = empty (fail-closed)
	Class lattice.Class // zero = bottom
	// Multilevel marks the node as a multilevel container (see
	// names.Node.Multilevel): subjects above its class may bind and
	// unbind entries in it.
	Multilevel bool
}

// CreateNode creates a node with no access checks; for system bootstrap
// before any untrusted code runs. The parent must already exist.
func (s *System) CreateNode(spec NodeSpec) (*names.Node, error) {
	parts, err := names.SplitPath(spec.Path)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, names.ErrRoot
	}
	class := spec.Class
	if !class.Valid() {
		class, err = s.lat.Bottom()
		if err != nil {
			return nil, err
		}
	}
	parent := names.Join("/", parts[:len(parts)-1]...)
	return s.ns.BindUnchecked(parent, names.BindSpec{
		Name:       parts[len(parts)-1],
		Kind:       spec.Kind,
		ACL:        spec.ACL,
		Class:      class,
		Multilevel: spec.Multilevel,
	})
}

// ServiceSpec describes one callable, extendable service.
type ServiceSpec struct {
	Path  string        // absolute path of the method node
	ACL   *acl.ACL      // protection of the service
	Class lattice.Class // class of the service node (zero = bottom)
	Base  dispatch.Binding
}

// AttachBase installs the base implementation for a method node that
// already exists — typically one declared by a policy file. Bootstrap
// only.
func (s *System) AttachBase(path string, base dispatch.Binding) error {
	n, err := s.ns.ResolveUnchecked(path)
	if err != nil {
		return err
	}
	if n.Kind() != names.KindMethod {
		return fmt.Errorf("%w: %s is a %s, not a method", ErrConfig, path, n.Kind())
	}
	return s.disp.Register(path, base)
}

// RegisterService creates the service's method node and installs its
// base implementation in the dispatcher. Bootstrap only (unchecked);
// untrusted code adds behavior exclusively via Extend.
func (s *System) RegisterService(spec ServiceSpec) error {
	if spec.Base.Handler == nil {
		return fmt.Errorf("%w: service %s has no base handler", ErrConfig, spec.Path)
	}
	node, err := s.CreateNode(NodeSpec{
		Path: spec.Path, Kind: names.KindMethod, ACL: spec.ACL, Class: spec.Class,
	})
	if err != nil {
		return err
	}
	if err := s.disp.Register(spec.Path, spec.Base); err != nil {
		_, _ = s.ns.Apply(nil, lattice.Class{}, names.Unbind(node.Path()))
		return err
	}
	return nil
}
