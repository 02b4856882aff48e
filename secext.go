// Package secext is a security library for extensible systems,
// implementing the access-control model of "Security for Extensible
// Systems" (Robert Grimm and Brian N. Bershad, HotOS VI, 1997).
//
// The model in one paragraph: an extensible system lets units of code
// (extensions) be loaded and linked into a running base system.
// Extensions interact with the system in exactly two ways — they call
// existing services, and they extend (specialize) existing services —
// so protection must mediate both. secext does this with one central
// reference monitor over one universal hierarchical name space: every
// service, extension, thread, and file is a named node carrying a fully
// featured ACL (discretionary control, with the paper's execute and
// extend modes) and a security class drawn from a lattice of trust
// levels × category sets (mandatory control, Bell-LaPadula style).
// Threads of control carry their principal's class, the class
// propagates across calls, statically classed extensions clamp it, and
// the dispatcher selects among specializations by the caller's class.
//
// Quick start:
//
//	w, err := secext.NewWorld(secext.WorldOptions{
//		Levels:     []string{"others", "organization", "local"},
//		Categories: []string{"dept-1", "dept-2"},
//	})
//	// register principals, load extensions, call services:
//	w.Sys.AddPrincipal("alice", "organization:{dept-1}")
//	ctx, _ := w.Sys.NewContext("alice")
//	out, err := w.Sys.Call(ctx, "/svc/fs/read", secext.FileRequest{Path: "/fs/x"})
//
// The package is a facade: the types below alias the implementation in
// internal/, which is organized as DESIGN.md describes.
package secext

import (
	"io"

	"secext/internal/acl"
	"secext/internal/admission"
	"secext/internal/audit"
	"secext/internal/core"
	"secext/internal/dispatch"
	"secext/internal/extension"
	"secext/internal/fsys"
	"secext/internal/lattice"
	"secext/internal/monitor"
	"secext/internal/monitor/auditguard"
	"secext/internal/monitor/quotaguard"
	"secext/internal/names"
	"secext/internal/policy"
	"secext/internal/principal"
	"secext/internal/subject"
	"secext/internal/telemetry"
)

// Core system types.
type (
	// System is the reference monitor: the single central facility for
	// naming and protection.
	System = core.System
	// Options configure NewSystem.
	Options = core.Options
	// NodeSpec describes a name-space node for bootstrap creation.
	NodeSpec = core.NodeSpec
	// ServiceSpec describes a callable, extendable service.
	ServiceSpec = core.ServiceSpec
)

// Subjects and principals.
type (
	// Context is a thread of control: a principal plus its current
	// (possibly clamped) security class.
	Context = subject.Context
	// Principal is an individual identity.
	Principal = principal.Principal
	// Registry stores principals, groups, and memberships.
	Registry = principal.Registry
)

// Protection state.
type (
	// ACL is a discretionary access control list.
	ACL = acl.ACL
	// ACLEntry is one allow or deny entry.
	ACLEntry = acl.Entry
	// Mode is a bitmask of access modes.
	Mode = acl.Mode
	// Class is a mandatory security class (trust level + categories).
	Class = lattice.Class
	// Lattice is the universe of levels and categories.
	Lattice = lattice.Lattice
)

// Access modes (§2.1 of the paper).
const (
	Read         = acl.Read
	Write        = acl.Write
	WriteAppend  = acl.WriteAppend
	Execute      = acl.Execute
	Extend       = acl.Extend
	Administrate = acl.Administrate
	Delete       = acl.Delete
	List         = acl.List
	AllModes     = acl.AllModes
)

// ACL entry constructors.
var (
	Allow         = acl.Allow
	Deny          = acl.Deny
	AllowGroup    = acl.AllowGroup
	DenyGroup     = acl.DenyGroup
	AllowEveryone = acl.AllowEveryone
	DenyEveryone  = acl.DenyEveryone
	NewACL        = acl.New
	ParseACL      = acl.Parse
	ParseMode     = acl.ParseMode
)

// Name space.
type (
	// Node is one entry in the universal name space.
	Node = names.Node
	// NodeKind classifies name-space nodes.
	NodeKind = names.Kind
	// BindSpec describes a node for the checked Bind operation.
	BindSpec = names.BindSpec
)

// Node kinds.
const (
	KindDomain    = names.KindDomain
	KindInterface = names.KindInterface
	KindObject    = names.KindObject
	KindMethod    = names.KindMethod
	KindDirectory = names.KindDirectory
	KindFile      = names.KindFile
)

// Extensions and dispatch.
type (
	// Extension is the code side of a loadable extension.
	Extension = extension.Extension
	// Manifest declares an extension's identity and authority.
	Manifest = extension.Manifest
	// Linkage is the capability table an extension receives at load.
	Linkage = extension.Linkage
	// Capability is one bound import.
	Capability = extension.Capability
	// Loader admits extensions into a system.
	Loader = extension.Loader
	// LoadedExtension records one successfully linked extension.
	LoadedExtension = extension.Loaded
	// Handler is one service implementation.
	Handler = dispatch.Handler
	// Binding associates a handler with its owner and static class.
	Binding = dispatch.Binding
)

// The reference monitor's policy pipeline (mechanism/policy split).
type (
	// Guard is one composable policy module in the monitor pipeline.
	Guard = monitor.Guard
	// GuardRequest is one access-control question a guard decides.
	GuardRequest = monitor.Request
	// GuardVerdict is a guard's (or the pipeline's) answer.
	GuardVerdict = monitor.Verdict
	// Pipeline is the ordered guard stack every mediated operation
	// consults; reach it via System.Monitor().
	Pipeline = monitor.Pipeline
	// AuditGuard observes requests without denying (dry-run rollout).
	AuditGuard = auditguard.Guard
	// QuotaGuard meters object accesses per subject, deny-by-default.
	QuotaGuard = quotaguard.Guard
)

// Guard constructors.
var (
	// NewAuditGuard builds a dry-run observer, optionally shadowing an
	// inner guard (see internal/monitor/auditguard).
	NewAuditGuard = auditguard.New
	// NewQuotaGuard builds a per-subject access meter scoped to a path
	// prefix ("" = everything; see internal/monitor/quotaguard).
	NewQuotaGuard = quotaguard.New
)

// Audit.
type (
	// AuditLog records every mediated decision.
	AuditLog = audit.Log
	// AuditEvent is one recorded decision.
	AuditEvent = audit.Event
	// AuditStats are the log's running counters.
	AuditStats = telemetry.AuditStats
	// AuditQuery selects retained audit events.
	AuditQuery = audit.Query
)

// Observability.
type (
	// Telemetry is the observability subsystem: mediation counters,
	// sampled latency histograms, and decision traces; reach it via
	// System.Telemetry() or World.Telemetry().
	Telemetry = telemetry.Telemetry
	// TelemetryOptions configure the subsystem (Options.Telemetry).
	TelemetryOptions = telemetry.Options
	// TelemetryMode selects how much the subsystem records.
	TelemetryMode = telemetry.Mode
	// TelemetrySnapshot is a point-in-time view of every counter.
	TelemetrySnapshot = telemetry.Snapshot
	// DecisionTrace is one sampled mediation, stage by stage.
	DecisionTrace = telemetry.Trace
)

// WriteProm renders a telemetry snapshot in Prometheus text exposition
// format (what secextd serves at /metrics).
var WriteProm = telemetry.WriteProm

// Telemetry modes.
const (
	// TelemetrySampled (the default) keeps all counters and samples
	// traces (1 in SampleEvery mediations).
	TelemetrySampled = telemetry.ModeSampled
	// TelemetryOff disables telemetry entirely.
	TelemetryOff = telemetry.ModeOff
	// TelemetryMetrics keeps counters and sampled histograms but retains
	// no traces.
	TelemetryMetrics = telemetry.ModeMetrics
	// TelemetryFull traces every mediation.
	TelemetryFull = telemetry.ModeFull
)

// Policy files.
type (
	// Policy is a parsed policy document.
	Policy = policy.Policy
)

// Origin-based admission (the paper's local / organization / outside
// applet classification).
type (
	// Admitter classifies code origins and admits extension manifests.
	Admitter = admission.Admitter
	// AdmissionRule maps an origin pattern to a class and clamp.
	AdmissionRule = admission.Rule
)

// File service.
type (
	// FS is the protected in-memory file service.
	FS = fsys.FS
	// FileRequest is the argument for the /svc/fs/* services.
	FileRequest = fsys.Request
	// FileInfo describes a file or directory.
	FileInfo = fsys.Info
)

// NewSystem creates a bare reference monitor (no services mounted).
func NewSystem(opts Options) (*System, error) { return core.NewSystem(opts) }

// ParsePolicy parses a policy document.
func ParsePolicy(r io.Reader) (*Policy, error) { return policy.Parse(r) }

// ParsePolicyString parses a policy document from a string.
func ParsePolicyString(s string) (*Policy, error) { return policy.ParseString(s) }

// IsDenied reports whether an error is an access-control denial.
func IsDenied(err error) bool { return core.IsDenied(err) }

// MountFS mounts a file service at root (a multilevel directory).
func MountFS(sys *System, root string, rootACL *ACL, class Class) (*FS, error) {
	return fsys.Mount(sys, root, rootACL, class)
}

// NewAdmitter builds an origin-based admission front end over the
// system's extension loader.
func NewAdmitter(sys *System, rules []AdmissionRule) (*Admitter, error) {
	return admission.New(sys, rules)
}

// SnapshotPolicy extracts the live protection state (lattice,
// principals, groups, nodes, ACLs) as a policy document that Build can
// reconstruct.
func SnapshotPolicy(sys *System) (*Policy, error) {
	return policy.Snapshot(sys)
}
