package audit

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
)

func ev(kind Kind, subject, path string, allowed bool) Event {
	return Event{Kind: kind, Subject: subject, Path: path, Op: "execute",
		Class: "others", Allowed: allowed, Reason: "test"}
}

func TestRecordAndRecent(t *testing.T) {
	l := NewLog(10)
	l.Record(ev(KindCall, "alice", "/svc/a", true))
	l.Record(ev(KindCall, "bob", "/svc/b", false))
	got := l.Recent(0)
	if len(got) != 2 {
		t.Fatalf("Recent = %d events, want 2", len(got))
	}
	if got[0].Subject != "alice" || got[1].Subject != "bob" {
		t.Errorf("order wrong: %v", got)
	}
	if got[0].Seq >= got[1].Seq {
		t.Errorf("sequence numbers must increase: %d %d", got[0].Seq, got[1].Seq)
	}
	if got[0].Time.IsZero() {
		t.Error("Record must stamp time")
	}
}

func TestRingWrap(t *testing.T) {
	l := NewLog(3)
	for i := 0; i < 5; i++ {
		l.Record(ev(KindCall, "p", string(rune('a'+i)), true))
	}
	got := l.Recent(0)
	if len(got) != 3 {
		t.Fatalf("retained %d, want 3", len(got))
	}
	if got[0].Path != "c" || got[2].Path != "e" {
		t.Errorf("ring contents wrong: %v %v %v", got[0].Path, got[1].Path, got[2].Path)
	}
	if last := l.Recent(1); len(last) != 1 || last[0].Path != "e" {
		t.Errorf("Recent(1) = %v", last)
	}
}

func TestStats(t *testing.T) {
	l := NewLog(8)
	l.Record(ev(KindCall, "a", "/x", true))
	l.Record(ev(KindCall, "a", "/x", false))
	l.Record(ev(KindExtend, "a", "/x", true))
	l.Record(ev(KindData, "a", "/x", false))
	s := l.Stats()
	if s.Total != 4 || s.Allowed != 2 || s.Denied != 2 {
		t.Errorf("Stats = %+v", s)
	}
	if s.ByKind[KindCall] != 2 || s.ByKind[KindExtend] != 1 || s.ByKind[KindData] != 1 {
		t.Errorf("ByKind = %v", s.ByKind)
	}
}

func TestDisable(t *testing.T) {
	l := NewLog(8)
	l.Record(ev(KindCall, "a", "/x", true))
	l.SetEnabled(false)
	if l.Enabled() {
		t.Error("Enabled after SetEnabled(false)")
	}
	l.Record(ev(KindCall, "a", "/y", true))
	if got := len(l.Recent(0)); got != 1 {
		t.Errorf("disabled log recorded: %d events", got)
	}
	l.SetEnabled(true)
	l.Record(ev(KindCall, "a", "/z", true))
	if got := len(l.Recent(0)); got != 2 {
		t.Errorf("re-enabled log: %d events, want 2", got)
	}
}

func TestNilLogIsNoop(t *testing.T) {
	var l *Log
	l.Record(ev(KindCall, "a", "/x", true)) // must not panic
	l.SetEnabled(true)
	l.SetFilter(nil)
	l.AddSink(&strings.Builder{})
	if l.Enabled() {
		t.Error("nil log must report disabled")
	}
	if l.Recent(0) != nil {
		t.Error("nil log Recent must be nil")
	}
	if s := l.Stats(); s.Total != 0 {
		t.Error("nil log Stats must be zero")
	}
}

func TestFilter(t *testing.T) {
	l := NewLog(8)
	l.SetFilter(func(e Event) bool { return !e.Allowed }) // denials only
	l.Record(ev(KindCall, "a", "/x", true))
	l.Record(ev(KindCall, "a", "/y", false))
	got := l.Recent(0)
	if len(got) != 1 || got[0].Path != "/y" {
		t.Errorf("filter failed: %v", got)
	}
	if s := l.Stats(); s.Total != 1 {
		t.Errorf("filtered events must not count: %+v", s)
	}
}

func TestSink(t *testing.T) {
	l := NewLog(8)
	var buf strings.Builder
	l.AddSink(&buf)
	l.Record(ev(KindExtend, "mallory", "/svc/fs", false))
	line := buf.String()
	for _, want := range []string{"DENY", "mallory", "/svc/fs", "extend", "test"} {
		if !strings.Contains(line, want) {
			t.Errorf("sink line %q missing %q", line, want)
		}
	}
}

func TestEventString(t *testing.T) {
	e := ev(KindCall, "alice", "/svc/a", true)
	e.Seq = 7
	s := e.String()
	for _, want := range []string{"#7", "ALLOW", "alice", "call"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must render")
	}
	for k := Kind(0); k < numKinds; k++ {
		if strings.Contains(k.String(), "Kind(") {
			t.Errorf("kind %d missing name", k)
		}
	}
}

func TestMinimumCapacity(t *testing.T) {
	l := NewLog(0)
	l.Record(ev(KindCall, "a", "/x", true))
	l.Record(ev(KindCall, "a", "/y", true))
	got := l.Recent(0)
	if len(got) != 1 || got[0].Path != "/y" {
		t.Errorf("capacity clamp: %v", got)
	}
}

func TestSelect(t *testing.T) {
	l := NewLog(32)
	l.Record(ev(KindCall, "alice", "/svc/a", true))
	l.Record(ev(KindCall, "bob", "/svc/a", false))
	l.Record(ev(KindData, "alice", "/fs/x", false))
	l.Record(ev(KindData, "alice", "/fs/y", true))

	if got := l.Select(Query{Subject: "alice"}); len(got) != 3 {
		t.Errorf("by subject: %d", len(got))
	}
	if got := l.Select(Query{Path: "/svc/a"}); len(got) != 2 {
		t.Errorf("by path: %d", len(got))
	}
	if got := l.Select(Query{PathPrefix: "/fs"}); len(got) != 2 {
		t.Errorf("by prefix: %d", len(got))
	}
	if got := l.Select(Query{Kind: KindData, HasKind: true}); len(got) != 2 {
		t.Errorf("by kind: %d", len(got))
	}
	if got := l.Select(Query{DeniedOnly: true}); len(got) != 2 {
		t.Errorf("denials: %d", len(got))
	}
	got := l.Select(Query{Subject: "alice", DeniedOnly: true, PathPrefix: "/fs"})
	if len(got) != 1 || got[0].Path != "/fs/x" {
		t.Errorf("combined: %v", got)
	}
	if got := l.Select(Query{}); len(got) != 4 {
		t.Errorf("match-all: %d", len(got))
	}
	var nilLog *Log
	if got := nilLog.Select(Query{}); got != nil {
		t.Error("nil log Select must be nil")
	}
}

func TestExportImportJSON(t *testing.T) {
	l := NewLog(16)
	l.Record(ev(KindCall, "alice", "/svc/a", true))
	l.Record(ev(KindData, "bob", "/fs/x", false))
	var buf strings.Builder
	if err := l.ExportJSON(&buf); err != nil {
		t.Fatalf("ExportJSON: %v", err)
	}
	if lines := strings.Count(strings.TrimSpace(buf.String()), "\n") + 1; lines != 2 {
		t.Errorf("exported %d lines", lines)
	}
	back, err := ImportJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ImportJSON: %v", err)
	}
	if len(back) != 2 {
		t.Fatalf("imported %d events", len(back))
	}
	orig := l.Recent(0)
	for i := range back {
		if back[i].Subject != orig[i].Subject || back[i].Allowed != orig[i].Allowed ||
			back[i].Kind != orig[i].Kind || back[i].Seq != orig[i].Seq ||
			!back[i].Time.Equal(orig[i].Time) {
			t.Errorf("event %d mismatch: %+v vs %+v", i, back[i], orig[i])
		}
	}
	// Corrupt input fails cleanly.
	if _, err := ImportJSON(strings.NewReader("{bad json\n")); err == nil {
		t.Error("corrupt import must fail")
	}
	// Empty input yields nothing.
	if got, err := ImportJSON(strings.NewReader("")); err != nil || len(got) != 0 {
		t.Errorf("empty import = %v, %v", got, err)
	}
}

func TestConcurrentRecord(t *testing.T) {
	l := NewLog(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l.Record(ev(KindCall, "p", "/x", j%2 == 0))
			}
		}()
	}
	wg.Wait()
	s := l.Stats()
	if s.Total != 1600 || s.Allowed != 800 || s.Denied != 800 {
		t.Errorf("Stats = %+v", s)
	}
	if got := len(l.Recent(0)); got != 64 {
		t.Errorf("ring retained %d, want 64", got)
	}
}

// Record copies the event into the ring: with no filter or sink it
// leaves no garbage per mediation, for an allow or for a denial that
// carries its error.
func TestRecordAllocatesNothing(t *testing.T) {
	l := NewLog(16)
	e := ev(KindData, "alice", "/fs/x", true)
	if n := testing.AllocsPerRun(100, func() { l.Record(e) }); n != 0 {
		t.Errorf("Record allocates %v times per call, want 0", n)
	}
	d := Event{Kind: KindData, Subject: "alice", Path: "/fs/x", Op: "write",
		Err: errors.New("names: access denied: write on /fs/x (acl: modes not granted)")}
	if n := testing.AllocsPerRun(100, func() { l.Record(d) }); n != 0 {
		t.Errorf("Record of a denial allocates %v times per call, want 0", n)
	}
}

// An event recorded with an error and no reason reads back with the
// error's text as its Reason through every reader: Recent, Select,
// ExportJSON, String, a sink and a filter.
func TestErrReasonFormattedOnRead(t *testing.T) {
	err := errors.New("names: access denied: read on /fs/x (mac: append would write down)")
	d := Event{Kind: KindData, Subject: "bob", Path: "/fs/x", Op: "read", Err: err}
	check := func(where string, e Event) {
		t.Helper()
		if e.Reason != err.Error() || e.Err != nil {
			t.Errorf("%s: Reason %q, Err %v; want the error's text and no error", where, e.Reason, e.Err)
		}
	}

	l := NewLog(4)
	l.Record(d)
	check("Recent", l.Recent(0)[0])
	check("Select", l.Select(Query{DeniedOnly: true})[0])
	var buf bytes.Buffer
	if err := l.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, ierr := ImportJSON(&buf)
	if ierr != nil || len(back) != 1 {
		t.Fatalf("import: %v, %d events", ierr, len(back))
	}
	check("ExportJSON", back[0])
	if s := d.String(); !strings.HasSuffix(s, ": DENY ("+err.Error()+")") {
		t.Errorf("String = %q", s)
	}

	var sink strings.Builder
	var filtered []Event
	l2 := NewLog(4)
	l2.AddSink(&sink)
	l2.SetFilter(func(e Event) bool { filtered = append(filtered, e); return true })
	l2.Record(d)
	if len(filtered) != 1 {
		t.Fatalf("filter saw %d events", len(filtered))
	}
	check("filter", filtered[0])
	if !strings.HasSuffix(sink.String(), ": DENY ("+err.Error()+")\n") {
		t.Errorf("sink line = %q", sink.String())
	}

	// A reason already set wins over the error.
	d.Reason = "custom"
	if s := d.String(); !strings.HasSuffix(s, "(custom)") {
		t.Errorf("String with a reason = %q", s)
	}
}

// Snapshots taken while writers overwrite the ring see whole events in
// sequence order.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	l := NewLog(8)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			who := string(rune('a' + i))
			for j := 0; j < 500; j++ {
				l.Record(ev(KindCall, who, "/"+who, j%2 == 0))
			}
		}(i)
	}
	for k := 0; k < 200; k++ {
		got := l.Recent(0)
		for i, e := range got {
			if e.Path != "/"+e.Subject {
				t.Fatalf("torn event %+v", e)
			}
			if i > 0 && got[i-1].Seq >= e.Seq {
				t.Fatalf("snapshot out of order: %d then %d", got[i-1].Seq, e.Seq)
			}
		}
		l.Count(Query{Subject: "a"})
	}
	wg.Wait()
	if got := len(l.Recent(0)); got != 8 {
		t.Errorf("ring retained %d, want 8", got)
	}
}

func TestRecordBypassCountsSeparately(t *testing.T) {
	l := NewLog(16)
	l.Record(ev(KindCall, "alice", "/svc/x", true))
	l.RecordBypass(Event{Kind: KindUnchecked, Subject: "host",
		Path: "/boot/x", Op: "bind-unchecked", Allowed: true, Reason: "bypassed mediation"})

	s := l.Stats()
	if s.Total != 1 || s.Allowed != 1 || s.Denied != 0 {
		t.Errorf("decision counters polluted by bypass: %+v", s)
	}
	if s.Bypassed != 1 || s.ByKind[KindUnchecked] != 1 {
		t.Errorf("bypass not counted: %+v", s)
	}

	// The event itself must land in the ring like any other.
	recent := l.Recent(0)
	if len(recent) != 2 {
		t.Fatalf("ring holds %d events, want 2", len(recent))
	}
	last := recent[len(recent)-1]
	if last.Kind != KindUnchecked || last.Op != "bind-unchecked" {
		t.Errorf("ring event = %+v", last)
	}
	if last.Kind.String() != "unchecked" {
		t.Errorf("Kind string = %q", last.Kind.String())
	}
}

func TestRecordBypassOnNilAndDisabled(t *testing.T) {
	var nilLog *Log
	nilLog.RecordBypass(Event{Kind: KindUnchecked}) // must not panic
	l := NewLog(4)
	l.SetEnabled(false)
	l.RecordBypass(Event{Kind: KindUnchecked})
	if s := l.Stats(); s.Bypassed != 0 {
		t.Errorf("disabled log counted a bypass: %+v", s)
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	l := NewLog(16)
	l.Record(ev(KindCall, "alice", "/svc/a", true))
	l.Record(ev(KindData, "bob", "/fs/x", false))
	var buf strings.Builder
	if err := l.ExportJSON(&buf); err != nil {
		t.Fatalf("ExportJSON: %v", err)
	}
	// The modern export carries kind names, not numbers.
	if !strings.Contains(buf.String(), `"Kind":"call"`) ||
		!strings.Contains(buf.String(), `"Kind":"data"`) {
		t.Fatalf("export lacks named kinds:\n%s", buf.String())
	}
	back, err := ImportJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ImportJSON: %v", err)
	}
	if len(back) != 2 || back[0].Kind != KindCall || back[1].Kind != KindData {
		t.Fatalf("named round trip = %+v", back)
	}

	// Legacy exports carried bare numbers; ImportJSON must still read them.
	legacy := `{"Seq":1,"Kind":0,"Subject":"alice","Path":"/svc/a","Allowed":true}
{"Seq":2,"Kind":4,"Subject":"bob","Path":"/fs/x","Allowed":false}
`
	back, err = ImportJSON(strings.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy import: %v", err)
	}
	if len(back) != 2 || back[0].Kind != KindCall || back[1].Kind != KindData {
		t.Fatalf("legacy round trip = %+v", back)
	}

	// Unknown names are a clean error, unknown numbers are preserved.
	if _, err := ImportJSON(strings.NewReader(`{"Kind":"bogus"}` + "\n")); err == nil {
		t.Error("unknown kind name must fail")
	}
	back, err = ImportJSON(strings.NewReader(`{"Kind":200}` + "\n"))
	if err != nil || len(back) != 1 || back[0].Kind != Kind(200) {
		t.Errorf("out-of-range numeric kind = %+v, %v", back, err)
	}
}

// TestEpochJSONRoundTrip: the epoch-provenance field survives export
// and import, is omitted for zero (pre-provenance events and legacy
// exports stay byte-identical), and renders in String only when set.
func TestEpochJSONRoundTrip(t *testing.T) {
	l := NewLog(16)
	e := ev(KindData, "alice", "/fs/x", true)
	e.Epoch = 42
	l.Record(e)
	l.Record(ev(KindCall, "bob", "/svc/a", false)) // no epoch

	var buf strings.Builder
	if err := l.ExportJSON(&buf); err != nil {
		t.Fatalf("ExportJSON: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `"Epoch":42`) {
		t.Fatalf("export lacks epoch:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if strings.Contains(lines[1], "Epoch") {
		t.Errorf("zero epoch serialized: %s", lines[1])
	}

	back, err := ImportJSON(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ImportJSON: %v", err)
	}
	if len(back) != 2 || back[0].Epoch != 42 || back[1].Epoch != 0 {
		t.Fatalf("epoch round trip = %+v", back)
	}

	// Legacy exports without the field import with a zero epoch.
	legacy := `{"Seq":1,"Kind":"call","Subject":"alice","Path":"/svc/a","Allowed":true}` + "\n"
	back, err = ImportJSON(strings.NewReader(legacy))
	if err != nil || len(back) != 1 || back[0].Epoch != 0 {
		t.Fatalf("legacy import = %+v, %v", back, err)
	}

	if s := back[0].String(); strings.Contains(s, "epoch=") {
		t.Errorf("zero-epoch String renders epoch: %q", s)
	}
	withEpoch := ev(KindData, "alice", "/fs/x", true)
	withEpoch.Epoch = 42
	if s := withEpoch.String(); !strings.Contains(s, " epoch=42") {
		t.Errorf("String %q missing epoch=42", s)
	}
}

func TestKindNames(t *testing.T) {
	names := KindNames()
	if len(names) != numKinds || names[KindCall] != "call" || names[KindUnchecked] != "unchecked" {
		t.Fatalf("KindNames = %v", names)
	}
	// The returned slice is a copy; mutating it must not corrupt the table.
	names[0] = "mutated"
	if KindNames()[0] != "call" {
		t.Error("KindNames leaked the internal table")
	}
}

func TestSelectLimit(t *testing.T) {
	l := NewLog(32)
	for i := 0; i < 6; i++ {
		l.Record(ev(KindCall, "alice", "/svc/a", i%2 == 0))
	}
	got := l.Select(Query{Limit: 2})
	if len(got) != 2 {
		t.Fatalf("limit 2 returned %d", len(got))
	}
	// Most recent matches, still oldest-first.
	if got[0].Seq != 5 || got[1].Seq != 6 {
		t.Errorf("limited window = seq %d,%d, want 5,6", got[0].Seq, got[1].Seq)
	}
	if got := l.Select(Query{DeniedOnly: true, Limit: 1}); len(got) != 1 || got[0].Seq != 6 {
		t.Errorf("filtered limit = %+v", got)
	}
	if got := l.Select(Query{Limit: 100}); len(got) != 6 {
		t.Errorf("oversized limit = %d", len(got))
	}
}

func TestCount(t *testing.T) {
	l := NewLog(32)
	l.Record(ev(KindCall, "alice", "/svc/a", true))
	l.Record(ev(KindCall, "bob", "/svc/a", false))
	l.Record(ev(KindData, "alice", "/fs/x", false))

	if got := l.Count(Query{}); got != 3 {
		t.Errorf("count all = %d", got)
	}
	if got := l.Count(Query{Subject: "alice"}); got != 2 {
		t.Errorf("count alice = %d", got)
	}
	if got := l.Count(Query{DeniedOnly: true}); got != 2 {
		t.Errorf("count denied = %d", got)
	}
	// Limit is a Select concept; Count ignores it.
	if got := l.Count(Query{Limit: 1}); got != 3 {
		t.Errorf("count with limit = %d", got)
	}
	var nilLog *Log
	if got := nilLog.Count(Query{}); got != 0 {
		t.Errorf("nil count = %d", got)
	}
}

func TestStatsDropped(t *testing.T) {
	l := NewLog(4)
	for i := 0; i < 3; i++ {
		l.Record(ev(KindCall, "alice", "/svc/a", true))
	}
	if s := l.Stats(); s.Dropped != 0 {
		t.Fatalf("dropped before wrap = %d", s.Dropped)
	}
	for i := 0; i < 7; i++ {
		l.Record(ev(KindCall, "alice", "/svc/a", true))
	}
	if s := l.Stats(); s.Dropped != 6 {
		t.Fatalf("dropped after wrap = %d, want 6", s.Dropped)
	}
	// Filtered events never claim a slot and so never count as dropped.
	l.SetFilter(func(Event) bool { return false })
	l.Record(ev(KindCall, "alice", "/svc/a", true))
	if s := l.Stats(); s.Dropped != 6 {
		t.Errorf("filtered event counted as dropped: %d", s.Dropped)
	}
}

func TestRecordReturnsSeq(t *testing.T) {
	l := NewLog(8)
	if seq := l.Record(ev(KindCall, "alice", "/svc/a", true)); seq != 1 {
		t.Errorf("first seq = %d", seq)
	}
	if seq := l.RecordBypass(ev(KindUnchecked, "host", "/x", true)); seq != 2 {
		t.Errorf("bypass seq = %d", seq)
	}
	// Filtered events still consume and report a sequence number.
	l.SetFilter(func(Event) bool { return false })
	if seq := l.Record(ev(KindCall, "alice", "/svc/a", true)); seq != 3 {
		t.Errorf("filtered seq = %d", seq)
	}
	var nilLog *Log
	if seq := nilLog.Record(Event{}); seq != 0 {
		t.Errorf("nil seq = %d", seq)
	}
	l.SetEnabled(false)
	if seq := l.Record(Event{}); seq != 0 {
		t.Errorf("disabled seq = %d", seq)
	}
}
