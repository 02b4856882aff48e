package core

import (
	"errors"

	"secext/internal/acl"
	"secext/internal/audit"
	"secext/internal/dispatch"
	"secext/internal/names"
	"secext/internal/subject"
	"secext/internal/telemetry"
)

// check is the single enforcement path of the reference monitor. Every
// mediated operation resolves the object in the universal name space,
// applies the discretionary and mandatory rules for the requested
// modes, and records the decision. When the telemetry sampler selects
// the request, the whole decision is traced stage by stage and the
// trace is correlated with the audit event via its sequence number;
// unsampled requests take the exact untraced path.
func (s *System) check(ctx *subject.Context, path string, modes acl.Mode, kind audit.Kind) (*names.Node, error) {
	var tr *telemetry.ActiveTrace
	if s.tel.Tracing() {
		tr = s.tel.StartTrace(kind.String(), ctx.SubjectName(), path, modes.String())
	}
	var n *names.Node
	var epoch uint64
	var err error
	if tr == nil {
		n, epoch, err = s.ns.CheckAccessAt(ctx, ctx.Class(), path, modes)
	} else {
		tr.SetClass(ctx.ClassLabel())
		n, epoch, err = s.ns.CheckAccessTracedAt(ctx, ctx.Class(), path, modes, tr)
	}
	seq := s.recordAt(kind, ctx, path, modes.String(), epoch, err)
	if tr != nil {
		reason := ""
		if err != nil {
			reason = err.Error()
		}
		tr.Finish(seq, err == nil, reason)
	}
	return n, err
}

// record counts and audits one mediated decision, returning the audit
// sequence number (0 when auditing is off). The telemetry counter runs
// regardless of audit state: metrics must see every decision even on
// systems running the E7 no-audit configuration.
func (s *System) record(kind audit.Kind, ctx *subject.Context, path, op string, err error) uint64 {
	// Operations that don't surface their pinned epoch stamp the
	// current version: at worst one publication newer than the epoch
	// that decided, still close enough to correlate with the journal.
	return s.recordAt(kind, ctx, path, op, s.ns.Version(), err)
}

// recordAt is record with the deciding policy-epoch version carried
// into the audit event, for audit ↔ journal ↔ trace correlation.
func (s *System) recordAt(kind audit.Kind, ctx *subject.Context, path, op string, epoch uint64, err error) uint64 {
	s.tel.Mediation(int(kind), err == nil)
	if !s.log.Enabled() {
		return 0
	}
	reason := "granted"
	if err != nil {
		reason = err.Error()
	}
	return s.log.Record(audit.Event{
		Kind:    kind,
		Subject: ctx.SubjectName(),
		Class:   ctx.ClassLabel(),
		Path:    path,
		Op:      op,
		Allowed: err == nil,
		Reason:  reason,
		Epoch:   epoch,
	})
}

// Call invokes the service at path on behalf of ctx: the first of the
// two ways extensions interact with the system (§1.1). The subject
// needs execute mode under DAC and must dominate the service node under
// MAC; the dispatcher then selects the right implementation for the
// caller's class (§2.2) and runs it at the meet of caller and static
// class.
func (s *System) Call(ctx *subject.Context, path string, arg any) (any, error) {
	if _, err := s.check(ctx, path, acl.Execute, audit.KindCall); err != nil {
		return nil, err
	}
	return s.invoke(ctx, path, arg)
}

// invoke dispatches and contains misbehaving handlers: a recovered
// handler panic (dispatch.PanicError) is audited against the owning
// extension before being returned as an ordinary error — VINO's
// "dealing with disaster" discipline, which the paper's §1 survey
// cites as the other half of safe extensibility.
func (s *System) invoke(ctx *subject.Context, path string, arg any) (any, error) {
	out, err := s.disp.Invoke(path, ctx, arg)
	var pe *dispatch.PanicError
	if errors.As(err, &pe) {
		s.record(audit.KindCall, ctx, path, "handler-panic owner="+pe.Owner, err)
	}
	return out, err
}

// CallLinked invokes a service through a link-time-checked capability.
// Under full mediation (the default) it is identical to Call; when the
// system trusts link-time checking (SPIN's discipline) the per-call
// check is skipped and only class-based dispatch runs.
func (s *System) CallLinked(ctx *subject.Context, path string, arg any) (any, error) {
	if !s.trustLinkTime.Load() {
		return s.Call(ctx, path, arg)
	}
	return s.invoke(ctx, path, arg)
}

// CallAll multicasts to the base implementation and every admissible
// specialization at path (SPIN-style event raise), after the usual
// execute check. Results come back in invocation order; handler
// failures are joined into the error without stopping the rest.
func (s *System) CallAll(ctx *subject.Context, path string, arg any) ([]any, error) {
	if _, err := s.check(ctx, path, acl.Execute, audit.KindCall); err != nil {
		return nil, err
	}
	return s.disp.Multicast(path, ctx, arg)
}

// Extend registers a specialization at path: the second interaction
// mode. The subject needs extend mode on the service node.
func (s *System) Extend(ctx *subject.Context, path string, b dispatch.Binding) error {
	if _, err := s.check(ctx, path, acl.Extend, audit.KindExtend); err != nil {
		return err
	}
	return s.disp.Extend(path, b)
}

// Retract removes owner's specializations from path (extension unload).
func (s *System) Retract(path, owner string) error {
	_, err := s.disp.RemoveExtensions(path, owner)
	return err
}

// CheckImport is the loader's link-time check for one import: execute
// mode, audited as a link event.
func (s *System) CheckImport(ctx *subject.Context, path string) error {
	_, err := s.check(ctx, path, acl.Execute, audit.KindLink)
	return err
}

// CheckExtend is the loader's link-time check for one specialization
// target: extend mode, audited as a link event.
func (s *System) CheckExtend(ctx *subject.Context, path string) error {
	_, err := s.check(ctx, path, acl.Extend, audit.KindLink)
	return err
}

// CheckData verifies arbitrary data-access modes (read, write,
// write-append, delete) on the object at path. Services built on the
// monitor (the file service, the log service) use it as their single
// authorization point.
func (s *System) CheckData(ctx *subject.Context, path string, modes acl.Mode) (*names.Node, error) {
	return s.check(ctx, path, modes, audit.KindData)
}

// List enumerates the names bound under path, mediated by list mode.
func (s *System) List(ctx *subject.Context, path string) ([]string, error) {
	out, err := s.ns.List(ctx, ctx.Class(), path)
	s.record(audit.KindName, ctx, path, "list", err)
	return out, err
}

// Resolve walks to the node at path with per-level visibility checks.
func (s *System) Resolve(ctx *subject.Context, path string) (*names.Node, error) {
	n, err := s.ns.Resolve(ctx, ctx.Class(), path)
	s.record(audit.KindName, ctx, path, "resolve", err)
	return n, err
}

// GetACL reads the protection state of path.
func (s *System) GetACL(ctx *subject.Context, path string) (*acl.ACL, error) {
	a, err := s.ns.GetACL(ctx, ctx.Class(), path)
	s.record(audit.KindAdmin, ctx, path, "get-acl", err)
	return a, err
}

// Apply runs name-space edits on behalf of ctx as one atomic, checked
// transition (see names.Server.Apply) and audits it: on success one
// event per edit, stamped with the landing epoch version; on failure
// only the failing edit, with its error, stamped with the current
// version (a failed Apply publishes nothing).
func (s *System) Apply(ctx *subject.Context, edits ...names.Edit) (uint64, error) {
	v, err := s.ns.Apply(ctx, ctx.Class(), edits...)
	if err != nil {
		var ee *names.EditError
		if errors.As(err, &ee) {
			s.recordEdit(ctx, ee.Edit, s.ns.Version(), err)
		}
		return 0, err
	}
	for _, e := range edits {
		s.recordEdit(ctx, e, v, nil)
	}
	return v, nil
}

// recordEdit audits one name-space edit: binds, unbinds and renames as
// name events, protection changes as administrative ones.
func (s *System) recordEdit(ctx *subject.Context, e names.Edit, epoch uint64, err error) {
	kind, op := audit.KindAdmin, e.Op()
	switch op {
	case "bind", "unbind", "rename":
		kind = audit.KindName
	case "set-class":
		op += " " + e.Class().String()
	}
	s.recordAt(kind, ctx, e.Path(), op, epoch, err)
}

// SetACLAt is a single-edit Apply; bench/ compiles against it.
func (s *System) SetACLAt(ctx *subject.Context, path string, newACL *acl.ACL) (uint64, error) {
	return s.Apply(ctx, names.SetACL(path, newACL))
}

// IsDenied reports whether err represents an access-control denial (as
// opposed to a missing name or an internal failure).
func IsDenied(err error) bool { return errors.Is(err, names.ErrDenied) }
