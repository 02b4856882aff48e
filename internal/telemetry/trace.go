package telemetry

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Span is one timed stage of a mediation: the decision-cache probe, the
// name-space resolve, or one guard's evaluation.
type Span struct {
	// Name identifies the stage: "cache", "resolve", or "guard:<name>".
	Name string `json:"name"`
	// Detail is stage-specific: "hit gen=42", "deny: mac: ...", etc.
	Detail string `json:"detail,omitempty"`
	// Dur is the stage's wall-clock duration.
	Dur time.Duration `json:"dur_ns"`
}

// Trace is one completed decision trace: the structured record of where
// a mediated access check spent its time and why it ended the way it
// did. Traces are correlated with the audit trail via Seq.
type Trace struct {
	// ID is a per-telemetry monotone trace identifier.
	ID uint64 `json:"id"`
	// Seq is the audit sequence number of the decision's audit event
	// (0 when auditing was disabled at decision time).
	Seq uint64 `json:"seq,omitempty"`
	// Time is when the mediation started.
	Time time.Time `json:"time"`
	// Kind is the audit kind of the operation ("call", "data", ...).
	Kind string `json:"kind"`
	// Subject is the requesting principal; Class its label at decision
	// time.
	Subject string `json:"subject"`
	Class   string `json:"class,omitempty"`
	// Path is the object name; Op the requested modes.
	Path string `json:"path"`
	Op   string `json:"op"`
	// Epoch is the policy-epoch version the decision was pinned to
	// (0 when the mechanism never reported one). It correlates traces
	// with the epoch-transition journal and with audit events.
	Epoch uint64 `json:"epoch,omitempty"`
	// Allowed is the final verdict; Reason explains a denial.
	Allowed bool   `json:"allowed"`
	Reason  string `json:"reason,omitempty"`
	// DeniedBy names the guard whose verdict denied the request, when
	// the denial came from the pipeline (empty for structural errors).
	DeniedBy string `json:"denied_by,omitempty"`
	// Total is the end-to-end mediation duration.
	Total time.Duration `json:"total_ns"`
	// Spans are the timed stages, in execution order.
	Spans []Span `json:"spans"`
}

// String renders the trace as a single forensics line: verdict, who,
// what, total time, and every stage with its duration — "which guard
// denied and how long each stage took" at a glance.
func (t Trace) String() string {
	var b strings.Builder
	verdict := "DENY "
	if t.Allowed {
		verdict = "ALLOW"
	}
	fmt.Fprintf(&b, "trace #%d seq=%d", t.ID, t.Seq)
	if t.Epoch != 0 {
		fmt.Fprintf(&b, " epoch=%d", t.Epoch)
	}
	fmt.Fprintf(&b, " %s %s %s", verdict, t.Kind, t.Subject)
	if t.Class != "" {
		b.WriteByte('@')
		b.WriteString(t.Class)
	}
	fmt.Fprintf(&b, " %s op=%s %s [", t.Path, t.Op, t.Total)
	for i, s := range t.Spans {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(s.Name)
		if s.Detail != "" {
			b.WriteByte(' ')
			b.WriteString(s.Detail)
		}
		b.WriteByte(' ')
		b.WriteString(s.Dur.String())
	}
	b.WriteByte(']')
	if t.DeniedBy != "" {
		fmt.Fprintf(&b, " denied-by=%s", t.DeniedBy)
	}
	if !t.Allowed && t.Reason != "" {
		fmt.Fprintf(&b, " reason=%q", t.Reason)
	}
	return b.String()
}

// ActiveTrace is a decision trace under construction. StartTrace hands
// one to the mediating goroutine, the mechanism layers append spans as
// stages complete, and Finish publishes the result. It is owned by a
// single goroutine and must not be shared.
//
// A nil *ActiveTrace is the "not sampled" case: every method is a no-op
// on nil, so instrumentation sites need exactly one predictable branch
// and the untraced path stays allocation-free.
type ActiveTrace struct {
	tel   *Telemetry
	start time.Time
	t     Trace
	// buf is the inline backing array for the first spans, so a typical
	// trace (cache + resolve + a few guards) costs one allocation total.
	buf [8]Span
}

// SetClass records the subject's rendered class label; called only
// after the sampling decision so unsampled requests never pay for the
// rendering.
func (a *ActiveTrace) SetClass(label string) {
	if a == nil {
		return
	}
	a.t.Class = label
}

// Span appends one timed stage.
func (a *ActiveTrace) Span(name, detail string, d time.Duration) {
	if a == nil {
		return
	}
	a.t.Spans = append(a.t.Spans, Span{Name: name, Detail: detail, Dur: d})
}

// EpochVersion records the published policy-epoch version the decision
// was pinned to: every later stage of this trace — resolve, each
// guard, the cache probe — ran against exactly this version of the name
// tree, the lattice, the registry, and the guard stack.
func (a *ActiveTrace) EpochVersion(v uint64) {
	if a == nil {
		return
	}
	a.t.Epoch = v
	a.Span("epoch", "v="+strconv.FormatUint(v, 10), 0)
}

// CacheProbe records the decision-cache stage: whether the probe hit
// and the protection-state generation it was answered against.
func (a *ActiveTrace) CacheProbe(hit bool, gen uint64, d time.Duration) {
	if a == nil {
		return
	}
	detail := "miss gen="
	if hit {
		detail = "hit gen="
	}
	a.Span("cache", detail+strconv.FormatUint(gen, 10), d)
}

// Guard records one guard's verdict and evaluation time, feeding the
// per-guard latency histogram and marking DeniedBy on a denial.
func (a *ActiveTrace) Guard(name string, allowed bool, reason string, d time.Duration) {
	if a == nil {
		return
	}
	detail := "allow"
	if !allowed {
		detail = "deny: " + reason
		a.t.DeniedBy = name
	}
	a.Span("guard:"+name, detail, d)
	a.tel.metrics.observeGuard(name, allowed, d)
}

// Finish completes the trace with the final verdict and the audit
// sequence number of the matching audit event, feeds the latency
// histograms, and (when the mode retains traces) publishes it into the
// telemetry ring.
func (a *ActiveTrace) Finish(seq uint64, allowed bool, reason string) {
	if a == nil {
		return
	}
	a.t.Total = time.Since(a.start)
	a.t.Seq = seq
	a.t.Allowed = allowed
	if !allowed {
		a.t.Reason = reason
	}
	a.tel.finish(a)
}
