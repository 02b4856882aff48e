// Package telemetry is the observability layer of the reference
// monitor: decision traces, per-stage metrics, and the snapshots behind
// the live introspection endpoints.
//
// The paper (§1) lists auditing among the system-security aspects its
// access-control model must integrate with; the audit log answers
// *what* was decided, this package answers *where the decision spent
// its time* and *which policy stage decided it*. Three pieces:
//
//   - Decision traces: a sampled per-request trace recording structured
//     spans for the decision-cache probe (hit/miss plus generation), the
//     name-space resolve, and each guard's verdict and duration, ending
//     in the final verdict correlated with the audit sequence number.
//     Completed traces land in a fixed ring; Recent reads them back and
//     Trace.String renders the one-line forensics form.
//
//   - Metrics: atomic counters (mediations by kind and verdict, cache
//     and audit statistics, dispatcher admissions) and lock-free
//     log-bucketed latency histograms (end-to-end mediation time,
//     per-guard evaluation time) with a snapshot API that reports
//     p50/p95/p99.
//
//   - Exposure: WriteProm renders a snapshot in Prometheus text format
//     and HTTPHandler serves /metrics, /debug/stats, and
//     /debug/trace/recent, all with no dependencies outside the
//     standard library.
//
// Cost discipline: an unsampled mediation pays one atomic add (its
// decision counter — which doubles as the sampling clock: every
// SampleEvery-th count arms a flag) plus one plain atomic load (the
// flag check), and zero allocations; latency histograms are fed by the
// sampler, so timestamps are read only on sampled requests. A nil
// *Telemetry is a valid no-op on every method, so disabled telemetry
// costs one predictable branch per site.
package telemetry

import (
	"errors"
	"math/bits"
	"sync/atomic"
	"time"
)

// Mode selects how much the telemetry layer records.
type Mode int

const (
	// ModeSampled is the default (and the zero value): all counters,
	// with traces and latency histograms fed from one mediation in
	// every SampleEvery.
	ModeSampled Mode = iota
	// ModeOff records nothing; the reference monitor does not even
	// construct a Telemetry for it.
	ModeOff
	// ModeMetrics keeps counters and sampled latency histograms but
	// retains no trace objects.
	ModeMetrics
	// ModeFull traces every mediation — maximum forensics, priced by
	// E13.
	ModeFull
)

var modeNames = map[Mode]string{
	ModeSampled: "sampled", ModeOff: "off", ModeMetrics: "metrics", ModeFull: "full",
}

func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return "mode?"
}

// ParseMode resolves a mode name ("off", "metrics", "sampled", "full").
func ParseMode(s string) (Mode, bool) {
	for m, name := range modeNames {
		if name == s {
			return m, true
		}
	}
	return ModeOff, false
}

// Options configure New.
type Options struct {
	// Mode selects the recording level; the zero value is ModeSampled
	// (metrics on, traces sampled), the production default.
	Mode Mode
	// SampleEvery traces roughly one mediation in this many (default
	// 256; values <= 1 trace everything; rounded up to a power of two).
	// Ignored under ModeFull.
	SampleEvery int
	// TraceCapacity bounds the completed-trace ring (default 256).
	TraceCapacity int
	// Kinds names the mediation kinds for the per-kind counters,
	// indexed by the kind value passed to Mediation.
	Kinds []string
}

// Telemetry is the observability registry one reference monitor owns.
// All methods are safe for concurrent use and safe on a nil receiver
// (recording nothing), so callers never branch on configuration.
type Telemetry struct {
	mode        Mode
	sampleEvery uint64
	sampleMask  uint64
	metrics     metrics

	// sampleFlag is armed by Mediation whenever a per-kind decision
	// counter crosses a multiple of sampleEvery and consumed (CAS) by
	// the next StartTrace. The arming test rides the counter add the
	// decision pays anyway, so the steady-state sampling cost is one
	// plain atomic load per mediation.
	sampleFlag atomic.Bool
	traceID    atomic.Uint64
	sampled    atomic.Uint64

	ring    []atomic.Pointer[Trace]
	ringPos atomic.Uint64

	// cacheStats, auditStats, and namesStats, when wired, pull the
	// decision cache's, audit log's, and name server's own counters into
	// snapshots. This package stays a leaf, so the owners inject their
	// Stats method values, which return this package's types.
	cacheStats atomic.Pointer[func() CacheStats]
	auditStats atomic.Pointer[func() AuditStats]
	namesStats atomic.Pointer[func() NamesStats]

	// epochJournal, when wired, snapshots the name server's
	// epoch-transition journal (newest first, n <= 0 for all), and
	// explain runs a provenance re-evaluation for the HTTP and remote
	// introspection surfaces. Injected as plain functions for the same
	// leaf-package reason as the stat hooks above.
	epochJournal atomic.Pointer[func(n int) []EpochTransition]
	explain      atomic.Pointer[func(subject, path, modes string) (string, []byte, error)]

	// replication, when wired, snapshots the replication publisher's
	// per-peer lag and transfer counters (primary side only).
	replication atomic.Pointer[func() ReplicationStats]
}

// New builds a telemetry registry. ModeOff returns nil — the nil
// receiver is the disabled implementation.
func New(opts Options) *Telemetry {
	if opts.Mode == ModeOff {
		return nil
	}
	every := opts.SampleEvery
	if every == 0 {
		every = 256
	}
	if every < 1 || opts.Mode == ModeFull {
		every = 1
	}
	if every > 1 {
		// Power of two, so the arming test is a mask, not a division.
		every = 1 << bits.Len64(uint64(every-1))
	}
	capacity := opts.TraceCapacity
	if capacity <= 0 {
		capacity = 256
	}
	t := &Telemetry{
		mode:        opts.Mode,
		sampleEvery: uint64(every),
		sampleMask:  uint64(every - 1),
		ring:        make([]atomic.Pointer[Trace], capacity),
	}
	// Arm the first mediation, so a freshly booted system has a trace
	// (and /metrics has latency series) after one request.
	t.sampleFlag.Store(true)
	t.metrics.init(opts.Kinds)
	return t
}

// Mode reports the recording level ("off" on nil).
func (t *Telemetry) Mode() Mode {
	if t == nil {
		return ModeOff
	}
	return t.mode
}

// SetCacheStats wires the decision cache's counter snapshot into
// Snapshot; nil detaches it.
func (t *Telemetry) SetCacheStats(fn func() CacheStats) {
	if t == nil {
		return
	}
	if fn == nil {
		t.cacheStats.Store(nil)
		return
	}
	t.cacheStats.Store(&fn)
}

// SetNamesStats wires the name server's epoch, publication, compile,
// journal, and footprint counters into Snapshot; nil detaches it.
func (t *Telemetry) SetNamesStats(fn func() NamesStats) {
	if t == nil {
		return
	}
	if fn == nil {
		t.namesStats.Store(nil)
		return
	}
	t.namesStats.Store(&fn)
}

// SetAuditStats wires the audit log's counter snapshot into Snapshot;
// nil detaches it.
func (t *Telemetry) SetAuditStats(fn func() AuditStats) {
	if t == nil {
		return
	}
	if fn == nil {
		t.auditStats.Store(nil)
		return
	}
	t.auditStats.Store(&fn)
}

// SetEpochJournal wires the name server's epoch-transition journal
// snapshot into the introspection endpoints; nil detaches it.
func (t *Telemetry) SetEpochJournal(fn func(n int) []EpochTransition) {
	if t == nil {
		return
	}
	if fn == nil {
		t.epochJournal.Store(nil)
		return
	}
	t.epochJournal.Store(&fn)
}

// EpochJournal returns up to n epoch-transition records, newest first
// (n <= 0 for all retained); nil when no journal is wired or the
// receiver is nil.
func (t *Telemetry) EpochJournal(n int) []EpochTransition {
	if t == nil {
		return nil
	}
	fn := t.epochJournal.Load()
	if fn == nil {
		return nil
	}
	return (*fn)(n)
}

// SetReplication wires the replication publisher's counter snapshot
// into Snapshot and the introspection endpoints; nil detaches it.
func (t *Telemetry) SetReplication(fn func() ReplicationStats) {
	if t == nil {
		return
	}
	if fn == nil {
		t.replication.Store(nil)
		return
	}
	t.replication.Store(&fn)
}

// Replication returns the wired replication snapshot and true, or a
// zero value and false when no publisher is wired (or the receiver is
// nil).
func (t *Telemetry) Replication() (ReplicationStats, bool) {
	if t == nil {
		return ReplicationStats{}, false
	}
	fn := t.replication.Load()
	if fn == nil {
		return ReplicationStats{}, false
	}
	return (*fn)(), true
}

// SetExplain wires the provenance explain engine: fn takes a subject
// name, an object path, and a textual mode set, and returns the
// human-readable verdict tree plus its JSON encoding. nil detaches.
func (t *Telemetry) SetExplain(fn func(subject, path, modes string) (text string, jsonBody []byte, err error)) {
	if t == nil {
		return
	}
	if fn == nil {
		t.explain.Store(nil)
		return
	}
	t.explain.Store(&fn)
}

// Explain runs the wired explain engine; it errors when none is wired
// (or the receiver is nil).
func (t *Telemetry) Explain(subject, path, modes string) (text string, jsonBody []byte, err error) {
	if t == nil {
		return "", nil, errors.New("telemetry: explain not wired")
	}
	fn := t.explain.Load()
	if fn == nil {
		return "", nil, errors.New("telemetry: explain not wired")
	}
	return (*fn)(subject, path, modes)
}

// RegisterGuards pre-creates the per-guard stat entries so the metric
// series exist (at zero) before the first sampled evaluation.
func (t *Telemetry) RegisterGuards(names ...string) {
	if t == nil {
		return
	}
	for _, n := range names {
		t.metrics.guard(n)
	}
}

// Mediation counts one mediated decision of the given kind (an index
// into Options.Kinds). One atomic add; called for every decision,
// sampled or not. The count it pays for anyway doubles as the sampling
// clock: every sampleEvery-th decision of a stream arms the flag the
// next Tracing probe consumes. The body is flat (no nested calls) so
// it inlines into the enforcement path.
func (t *Telemetry) Mediation(kind int, allowed bool) {
	if t == nil || kind < 0 || 2*kind >= len(t.metrics.mediations) {
		return
	}
	i := 2 * kind
	if !allowed {
		i++
	}
	if t.metrics.mediations[i].Add(1)&t.sampleMask == 0 && t.sampleEvery > 1 {
		t.sampleFlag.Store(true)
	}
}

// Tracing reports whether the next StartTrace would sample, without
// the cost of building its arguments: one flag load, inlinable, so the
// enforcement path probes it before touching strings. A true result is
// advisory — a concurrent mediation may win the flag — so callers must
// still handle a nil StartTrace.
func (t *Telemetry) Tracing() bool {
	return t != nil && (t.sampleEvery == 1 || t.sampleFlag.Load())
}

// Admission counts one dispatcher admission decision.
func (t *Telemetry) Admission(admitted bool) {
	if t == nil {
		return
	}
	t.metrics.admission(admitted)
}

// StartTrace makes the sampling decision for one mediation and, when
// selected, returns an ActiveTrace for the mechanism layers to fill.
// Unsampled mediations get nil (every ActiveTrace method no-ops on
// nil) and pay one plain atomic load. The first mediation is always
// sampled, so a freshly booted system has a trace to show.
func (t *Telemetry) StartTrace(kind, subject, path, op string) *ActiveTrace {
	if t == nil {
		return nil
	}
	if t.sampleEvery > 1 &&
		(!t.sampleFlag.Load() || !t.sampleFlag.CompareAndSwap(true, false)) {
		return nil
	}
	a := &ActiveTrace{tel: t, start: time.Now()}
	a.t = Trace{
		ID:      t.traceID.Add(1),
		Time:    a.start,
		Kind:    kind,
		Subject: subject,
		Path:    path,
		Op:      op,
		Spans:   a.buf[:0],
	}
	return a
}

// finish completes a sampled trace: feed the latency histogram and,
// unless the mode is metrics-only, publish the trace into the ring.
func (t *Telemetry) finish(a *ActiveTrace) {
	t.metrics.mediationLat.Observe(a.t.Total)
	t.sampled.Add(1)
	if t.mode == ModeMetrics {
		return
	}
	slot := (t.ringPos.Add(1) - 1) % uint64(len(t.ring))
	t.ring[slot].Store(&a.t)
}

// Recent returns up to n of the most recently completed traces, newest
// first (n <= 0 returns all retained). deniedOnly filters to denials.
func (t *Telemetry) Recent(n int, deniedOnly bool) []Trace {
	if t == nil {
		return nil
	}
	var out []Trace
	for i := range t.ring {
		if tr := t.ring[i].Load(); tr != nil {
			if deniedOnly && tr.Allowed {
				continue
			}
			out = append(out, *tr)
		}
	}
	// Newest first: IDs are monotone.
	sortTracesByIDDesc(out)
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

func sortTracesByIDDesc(ts []Trace) {
	// Insertion sort: the ring is almost sorted already and stays small.
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j-1].ID < ts[j].ID; j-- {
			ts[j-1], ts[j] = ts[j], ts[j-1]
		}
	}
}

// Snapshot assembles the full metrics view, pulling cache and audit
// counters through the wired callbacks. Safe on nil (zero snapshot,
// mode "off").
func (t *Telemetry) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{Mode: ModeOff.String()}
	}
	var s Snapshot
	s.Mode = t.mode.String()
	s.SampleEvery = int(t.sampleEvery)
	s.Mediations, s.MediationLatency, s.Guards, s.Admissions = t.metrics.snapshot()
	s.TracesSampled = t.sampled.Load()
	if fn := t.cacheStats.Load(); fn != nil {
		s.Cache = (*fn)()
	}
	if fn := t.auditStats.Load(); fn != nil {
		s.Audit = (*fn)()
	}
	if fn := t.namesStats.Load(); fn != nil {
		s.Names = (*fn)()
	}
	if fn := t.replication.Load(); fn != nil {
		r := (*fn)()
		s.Replication = &r
	}
	return s
}
