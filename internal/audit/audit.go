// Package audit records security-relevant events. The paper (§1) lists
// auditing among the aspects of overall system security its access
// control model must eventually integrate with; the reference monitor in
// internal/core emits one audit event per mediated operation so that
// every allow and deny decision is observable.
//
// The log keeps a bounded in-memory ring of recent events, maintains
// running counters, and can tee events to external sinks. It is safe for
// concurrent use and is designed to stay cheap when disabled (the E7
// ablation benchmark measures the difference).
package audit

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"secext/internal/telemetry"
)

// Kind classifies an audited operation.
type Kind uint8

const (
	// KindCall is an invocation of a service (execute).
	KindCall Kind = iota
	// KindExtend is a specialization of a service (extend).
	KindExtend
	// KindLink is a link-time import resolution by the extension loader.
	KindLink
	// KindName is a name-space operation (lookup, bind, unbind, list).
	KindName
	// KindData is a data access (read, write, append) on an object.
	KindData
	// KindAdmin is an administrative operation (ACL or class change).
	KindAdmin
	// KindUnchecked is a host-privileged operation that bypassed the
	// reference monitor entirely (names.ResolveUnchecked and the
	// *Unchecked mutators). These are recorded so the trail shows where
	// trusted code stepped around mediation, but they are not decisions:
	// they count in Stats.Bypassed, never in Allowed or Denied.
	KindUnchecked

	numKinds = 7
)

var kindNames = [numKinds]string{"call", "extend", "link", "name", "data", "admin", "unchecked"}

func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindNames returns the display names of every kind, indexed by Kind
// value — the label set metrics layers key their per-kind counters by.
func KindNames() []string {
	out := make([]string, numKinds)
	copy(out, kindNames[:])
	return out
}

// MarshalJSON renders a known kind as its name ("call", "extend", …)
// so exported trails are self-describing; unknown values fall back to
// the bare number.
func (k Kind) MarshalJSON() ([]byte, error) {
	if int(k) < numKinds {
		return json.Marshal(kindNames[k])
	}
	return json.Marshal(uint8(k))
}

// UnmarshalJSON accepts both the named form written by MarshalJSON and
// the bare numeric form of legacy exports.
func (k *Kind) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		for i, name := range kindNames {
			if name == s {
				*k = Kind(i)
				return nil
			}
		}
		return fmt.Errorf("audit: unknown kind %q", s)
	}
	var n uint8
	if err := json.Unmarshal(data, &n); err != nil {
		return err
	}
	*k = Kind(n)
	return nil
}

// Event is one security-relevant occurrence.
type Event struct {
	Seq     uint64    // monotonically increasing sequence number
	Time    time.Time // wall-clock time of the decision
	Kind    Kind      // operation class
	Subject string    // principal on whose behalf the operation ran
	Class   string    // subject's security class label at decision time
	Path    string    // object name in the universal name space
	Op      string    // operation detail, e.g. requested modes
	Allowed bool      // the decision
	Reason  string    // why (which check failed, or "granted")
	// Err, when set on a recorded event with no Reason, is the error the
	// operation failed with. The log keeps the value and formats Reason
	// from it only when the event is read (Recent, Select, ExportJSON,
	// String), or at record time when a filter or sink needs the text,
	// so a denial costs no formatting on the mediation path. Events read
	// back carry the Reason and a nil Err.
	Err error `json:"-"`
	// Epoch is the policy-epoch version the decision was computed
	// against (0 for events recorded before epoch plumbing, or for
	// occurrences with no deciding epoch). It correlates the audit
	// trail with the epoch-transition journal and decision traces by
	// version as well as by Seq.
	Epoch uint64 `json:",omitempty"`
}

// withReason returns e with Reason formatted from Err, if it has one.
func (e Event) withReason() Event {
	if e.Err != nil {
		if e.Reason == "" {
			e.Reason = e.Err.Error()
		}
		e.Err = nil
	}
	return e
}

// String renders the event in a single audit line.
func (e Event) String() string {
	e = e.withReason()
	verdict := "DENY"
	if e.Allowed {
		verdict = "ALLOW"
	}
	epoch := ""
	if e.Epoch != 0 {
		epoch = fmt.Sprintf(" epoch=%d", e.Epoch)
	}
	return fmt.Sprintf("#%d %s %s%s subject=%s class=%s path=%s op=%s: %s (%s)",
		e.Seq, e.Time.UTC().Format(time.RFC3339Nano), e.Kind, epoch, e.Subject,
		e.Class, e.Path, e.Op, verdict, e.Reason)
}

// Log is a bounded, concurrency-safe audit log.
//
// The hot path (Record) allocates nothing: a writer claims a ring slot
// with one atomic increment and copies its event into the slot under
// that slot's own mutex, so concurrent mediated operations serialize
// only when two of them land on the same slot (the ring wrapped between
// their claims) or a snapshot is copying that one event. An event per
// mediation on the heap would make the garbage collector's pace follow
// the request rate. The other mutexes cannot hurt the hot path: sinkMu
// serializes the (rare) external sink writes — the line is formatted
// before the lock is taken, so a slow sink never holds it during
// formatting and never touches the ring — and snapMu serializes
// whole-ring snapshot reads (Recent).
//
// The zero Log is not usable; call NewLog. A nil *Log is a valid no-op
// target: all methods are safe on nil and record nothing, so callers can
// make auditing optional without branching.
type Log struct {
	enabled atomic.Bool
	seq     atomic.Uint64

	// ring holds the most recent events. pos counts slots ever claimed;
	// slot pos%len(ring) is overwritten by the claimant.
	ring []ringSlot
	pos  atomic.Uint64

	// filter is applied before an event claims a slot or counts.
	filter atomic.Pointer[func(Event) bool]

	// sinks is copy-on-write: AddSink swaps in a new slice, Record loads
	// it without locking. sinkMu serializes the actual writes (and the
	// append) so sink output lines do not interleave.
	sinks  atomic.Pointer[[]io.Writer]
	sinkMu sync.Mutex

	// snapMu serializes snapshot reads; it is never taken by Record.
	snapMu sync.Mutex

	stats struct {
		total    atomic.Uint64
		allowed  atomic.Uint64
		denied   atomic.Uint64
		bypassed atomic.Uint64
		byKind   [numKinds]atomic.Uint64
	}
}

// ringSlot is one retained event. Seq 0 marks a slot never written:
// recorded events are numbered from 1.
type ringSlot struct {
	mu sync.Mutex
	ev Event
}

// load returns the slot's event, if it holds one.
func (r *ringSlot) load() (Event, bool) {
	r.mu.Lock()
	ev := r.ev
	r.mu.Unlock()
	return ev, ev.Seq != 0
}

// NewLog creates an enabled log retaining the most recent capacity
// events (minimum 1).
func NewLog(capacity int) *Log {
	if capacity < 1 {
		capacity = 1
	}
	l := &Log{ring: make([]ringSlot, capacity)}
	l.enabled.Store(true)
	return l
}

// SetEnabled turns recording on or off. Disabled logs drop events but
// still hand out sequence numbers so Seq stays meaningful across gaps.
func (l *Log) SetEnabled(on bool) {
	if l == nil {
		return
	}
	l.enabled.Store(on)
}

// Enabled reports whether the log is recording.
func (l *Log) Enabled() bool { return l != nil && l.enabled.Load() }

// AddSink tees every recorded event, one String line per event, to w.
func (l *Log) AddSink(w io.Writer) {
	if l == nil {
		return
	}
	l.sinkMu.Lock()
	defer l.sinkMu.Unlock()
	var next []io.Writer
	if cur := l.sinks.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, w)
	l.sinks.Store(&next)
}

// SetFilter installs a predicate; only events for which it returns true
// are recorded. A nil filter records everything.
func (l *Log) SetFilter(f func(Event) bool) {
	if l == nil {
		return
	}
	if f == nil {
		l.filter.Store(nil)
		return
	}
	l.filter.Store(&f)
}

// Record stamps and stores an event, updating counters and sinks, and
// returns the sequence number it assigned (0 when the log is nil or
// disabled) so callers can correlate other records — decision traces,
// external tickets — with the audit trail. The Seq and Time fields of
// ev are assigned by Record.
//
// Record blocks on another recorder only when both claimed the same
// ring slot: the filter runs lock-free, the slot is claimed with one
// atomic increment, and the event is copied in under the slot's mutex.
// Sink output is formatted first and only then written under sinkMu, so
// a slow sink delays other writers only if they too have sink output
// pending — never the ring.
func (l *Log) Record(ev Event) uint64 {
	return l.record(ev, true)
}

// RecordBypass records an operation that stepped around the reference
// monitor (host-privileged *Unchecked calls). The event lands in the
// ring, the sinks, ByKind, and Stats.Bypassed, but not in Total,
// Allowed, or Denied — a bypass is the absence of a decision, and
// inflating the decision counters would corrupt the allow/deny ratios
// the experiments report.
func (l *Log) RecordBypass(ev Event) uint64 {
	return l.record(ev, false)
}

func (l *Log) record(ev Event, decision bool) uint64 {
	if l == nil || !l.enabled.Load() {
		return 0
	}
	ev.Seq = l.seq.Add(1)
	ev.Time = time.Now()

	f, sinks := l.filter.Load(), l.sinks.Load()
	if f != nil || sinks != nil && len(*sinks) > 0 {
		ev = ev.withReason()
	}
	if f != nil && !(*f)(ev) {
		return ev.Seq
	}

	if decision {
		l.stats.total.Add(1)
		if ev.Allowed {
			l.stats.allowed.Add(1)
		} else {
			l.stats.denied.Add(1)
		}
	} else {
		l.stats.bypassed.Add(1)
	}
	if int(ev.Kind) < numKinds {
		l.stats.byKind[ev.Kind].Add(1)
	}

	slot := &l.ring[(l.pos.Add(1)-1)%uint64(len(l.ring))]
	slot.mu.Lock()
	slot.ev = ev
	slot.mu.Unlock()

	if sinks != nil && len(*sinks) > 0 {
		line := ev.String()
		l.sinkMu.Lock()
		for _, w := range *sinks {
			fmt.Fprintln(w, line)
		}
		l.sinkMu.Unlock()
	}
	return ev.Seq
}

// Recent returns up to n of the most recent events, oldest first.
// n <= 0 returns all retained events.
//
// The snapshot reads the ring slots without stopping writers; events
// are ordered by sequence number, so a record that lands mid-snapshot
// may or may not appear but can never reorder what does.
func (l *Log) Recent(n int) []Event {
	if l == nil {
		return nil
	}
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	var ordered []Event
	for i := range l.ring {
		if e, ok := l.ring[i].load(); ok {
			ordered = append(ordered, e)
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Seq < ordered[j].Seq })
	if n > 0 && len(ordered) > n {
		ordered = ordered[len(ordered)-n:]
	}
	for i := range ordered {
		ordered[i] = ordered[i].withReason()
	}
	return ordered
}

// Query selects retained events. Zero-valued fields match anything.
type Query struct {
	Subject    string // principal name
	Path       string // exact object path
	PathPrefix string // object path prefix ("/fs" matches "/fs/x")
	Kind       Kind   // operation class; only used when HasKind
	HasKind    bool
	DeniedOnly bool // only denials
	// Limit, when positive, bounds Select to the most recent Limit
	// matching events, so callers serving remote or HTTP requests never
	// copy the whole ring per query. 0 means no bound.
	Limit int
}

// match reports whether e satisfies every set field of q (Limit aside).
func (q Query) match(e Event) bool {
	if q.Subject != "" && e.Subject != q.Subject {
		return false
	}
	if q.Path != "" && e.Path != q.Path {
		return false
	}
	if q.PathPrefix != "" && !strings.HasPrefix(e.Path, q.PathPrefix) {
		return false
	}
	if q.HasKind && e.Kind != q.Kind {
		return false
	}
	if q.DeniedOnly && e.Allowed {
		return false
	}
	return true
}

// Select returns the retained events matching q, oldest first; a
// positive q.Limit keeps only the most recent that many matches.
func (l *Log) Select(q Query) []Event {
	var out []Event
	for _, e := range l.Recent(0) {
		if q.match(e) {
			out = append(out, e)
		}
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[len(out)-q.Limit:]
	}
	return out
}

// Count returns how many retained events match q without copying or
// ordering the ring — the cheap form of Select for callers that only
// need the number (q.Limit is ignored).
func (l *Log) Count(q Query) int {
	if l == nil {
		return 0
	}
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	n := 0
	for i := range l.ring {
		if e, ok := l.ring[i].load(); ok && q.match(e) {
			n++
		}
	}
	return n
}

// ExportJSON writes every retained event as one JSON object per line
// (JSON Lines), oldest first — the durable form of the trail for
// offline forensics.
func (l *Log) ExportJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range l.Recent(0) {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("audit: export: %w", err)
		}
	}
	return nil
}

// ImportJSON reads a JSON Lines stream produced by ExportJSON.
func ImportJSON(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, fmt.Errorf("audit: import: %w", err)
		}
		out = append(out, e)
	}
}

// Stats returns a snapshot of the running counters (see
// telemetry.AuditStats for their meaning); ByKind is indexed by Kind.
func (l *Log) Stats() telemetry.AuditStats {
	var s telemetry.AuditStats
	if l == nil {
		return s
	}
	s.Total = l.stats.total.Load()
	s.Allowed = l.stats.allowed.Load()
	s.Denied = l.stats.denied.Load()
	s.Bypassed = l.stats.bypassed.Load()
	if pos := l.pos.Load(); pos > uint64(len(l.ring)) {
		s.Dropped = pos - uint64(len(l.ring))
	}
	s.ByKind = make([]uint64, numKinds)
	for i := range s.ByKind {
		s.ByKind[i] = l.stats.byKind[i].Load()
	}
	return s
}
