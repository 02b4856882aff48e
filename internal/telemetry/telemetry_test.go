package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestTelemetry(opts Options) *Telemetry {
	if opts.Kinds == nil {
		opts.Kinds = []string{"call", "data"}
	}
	return New(opts)
}

func TestNilTelemetryIsNoOp(t *testing.T) {
	var tel *Telemetry
	tel.Mediation(0, true)
	tel.Admission(false)
	tel.RegisterGuards("dac")
	tel.SetCacheStats(func() CacheStats { return CacheStats{} })
	tel.SetAuditStats(nil)
	if tr := tel.StartTrace("call", "a", "/x", "read"); tr != nil {
		t.Fatal("nil telemetry sampled a trace")
	}
	var a *ActiveTrace
	a.SetClass("c")
	a.Span("resolve", "", time.Microsecond)
	a.CacheProbe(true, 1, 0)
	a.Guard("dac", true, "", 0)
	a.Finish(1, true, "")
	if got := tel.Recent(10, false); got != nil {
		t.Fatalf("nil Recent = %v", got)
	}
	s := tel.Snapshot()
	if s.Mode != "off" {
		t.Fatalf("nil snapshot mode = %q, want off", s.Mode)
	}
	if tel.Mode() != ModeOff {
		t.Fatalf("nil Mode() = %v", tel.Mode())
	}
}

func TestNewOffReturnsNil(t *testing.T) {
	if tel := New(Options{Mode: ModeOff}); tel != nil {
		t.Fatal("New(ModeOff) != nil")
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"off", ModeOff, true}, {"metrics", ModeMetrics, true},
		{"sampled", ModeSampled, true}, {"full", ModeFull, true},
		{"bogus", ModeOff, false},
	} {
		got, ok := ParseMode(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseMode(%q) = %v,%v want %v,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMediationCounters(t *testing.T) {
	tel := newTestTelemetry(Options{})
	tel.Mediation(0, true)
	tel.Mediation(0, true)
	tel.Mediation(0, false)
	tel.Mediation(1, false)
	tel.Mediation(99, true) // out of range: ignored, no panic
	tel.Mediation(-1, true)
	s := tel.Snapshot()
	if s.Mediations[0].Allowed != 2 || s.Mediations[0].Denied != 1 {
		t.Fatalf("kind 0 = %+v", s.Mediations[0])
	}
	if s.Mediations[1].Denied != 1 {
		t.Fatalf("kind 1 = %+v", s.Mediations[1])
	}
	a, d := s.Mediated()
	if a != 2 || d != 2 {
		t.Fatalf("Mediated() = %d,%d want 2,2", a, d)
	}
}

func TestSampling(t *testing.T) {
	// The decision counter is the sampling clock: StartTrace consumes a
	// flag that Mediation arms every SampleEvery-th decision, so the
	// test follows the real request flow (trace decision, then count).
	tel := newTestTelemetry(Options{SampleEvery: 4})
	sampled := 0
	for i := 0; i < 16; i++ {
		tr := tel.StartTrace("call", "a", "/x", "read")
		tel.Mediation(0, true)
		if tr != nil {
			sampled++
			tr.Finish(0, true, "")
		}
	}
	// Requests 1 (boot flag), 5, 9, and 13 (armed by counts 4, 8, 12).
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 with SampleEvery=4, want 4", sampled)
	}
	// The very first mediation must be sampled.
	tel2 := newTestTelemetry(Options{SampleEvery: 1000})
	if tr := tel2.StartTrace("call", "a", "/x", "read"); tr == nil {
		t.Fatal("first mediation not sampled")
	}
	// SampleEvery rounds up to a power of two.
	if got := tel2.Snapshot().SampleEvery; got != 1024 {
		t.Fatalf("SampleEvery 1000 rounded to %d, want 1024", got)
	}
}

func TestFullModeTracesEverything(t *testing.T) {
	tel := newTestTelemetry(Options{Mode: ModeFull, SampleEvery: 1000})
	for i := 0; i < 10; i++ {
		tr := tel.StartTrace("call", "a", "/x", "read")
		if tr == nil {
			t.Fatal("full mode skipped a trace")
		}
		tr.Finish(0, true, "")
	}
	if got := len(tel.Recent(0, false)); got != 10 {
		t.Fatalf("retained %d traces, want 10", got)
	}
}

func TestMetricsModeRetainsNoTraces(t *testing.T) {
	tel := newTestTelemetry(Options{Mode: ModeMetrics, SampleEvery: 1})
	tr := tel.StartTrace("call", "a", "/x", "read")
	if tr == nil {
		t.Fatal("metrics mode must still sample for histograms")
	}
	tr.Finish(0, true, "")
	if got := tel.Recent(0, false); len(got) != 0 {
		t.Fatalf("metrics mode retained traces: %v", got)
	}
	if s := tel.Snapshot(); s.MediationLatency.Count != 1 {
		t.Fatalf("latency histogram count = %d, want 1", s.MediationLatency.Count)
	}
}

func TestTraceContentAndRender(t *testing.T) {
	tel := newTestTelemetry(Options{Mode: ModeFull})
	tr := tel.StartTrace("data", "alice", "/fs/secret", "read")
	tr.SetClass("organization:{dept-1}")
	tr.CacheProbe(false, 7, 120*time.Nanosecond)
	tr.Span("resolve", "", time.Microsecond)
	tr.Guard("dac", true, "", 300*time.Nanosecond)
	tr.Guard("mac", false, "mac: no read up", 200*time.Nanosecond)
	tr.Finish(42, false, "denied: mac: no read up")

	got := tel.Recent(1, false)
	if len(got) != 1 {
		t.Fatalf("want 1 trace, got %d", len(got))
	}
	trace := got[0]
	if trace.Seq != 42 || trace.Allowed || trace.DeniedBy != "mac" {
		t.Fatalf("trace = %+v", trace)
	}
	if len(trace.Spans) != 4 {
		t.Fatalf("spans = %v", trace.Spans)
	}
	if trace.Spans[0].Name != "cache" || !strings.Contains(trace.Spans[0].Detail, "miss gen=7") {
		t.Fatalf("cache span = %+v", trace.Spans[0])
	}
	line := trace.String()
	for _, want := range []string{"DENY", "alice@organization:{dept-1}", "/fs/secret",
		"guard:mac", "denied-by=mac", "seq=42"} {
		if !strings.Contains(line, want) {
			t.Errorf("render %q missing %q", line, want)
		}
	}

	// The denying guard's evaluation fed the per-guard metrics.
	s := tel.Snapshot()
	var mac *GuardStat
	for i := range s.Guards {
		if s.Guards[i].Name == "mac" {
			mac = &s.Guards[i]
		}
	}
	if mac == nil || mac.Denied != 1 || mac.Latency.Count != 1 {
		t.Fatalf("mac guard stat = %+v", mac)
	}
}

func TestRecentFilterAndLimit(t *testing.T) {
	tel := newTestTelemetry(Options{Mode: ModeFull, TraceCapacity: 4})
	for i := 0; i < 6; i++ {
		tr := tel.StartTrace("call", "a", "/x", "read")
		tr.Finish(uint64(i+1), i%2 == 0, "boom")
	}
	all := tel.Recent(0, false)
	if len(all) != 4 {
		t.Fatalf("ring retained %d, want 4", len(all))
	}
	if all[0].ID < all[1].ID {
		t.Fatal("Recent not newest-first")
	}
	denied := tel.Recent(0, true)
	for _, tr := range denied {
		if tr.Allowed {
			t.Fatalf("denied filter returned allow: %+v", tr)
		}
	}
	if got := tel.Recent(2, false); len(got) != 2 {
		t.Fatalf("limit 2 returned %d", len(got))
	}
}

func TestRegisterGuardsAndStatsWiring(t *testing.T) {
	tel := newTestTelemetry(Options{})
	tel.RegisterGuards("dac", "mac")
	tel.SetCacheStats(func() CacheStats {
		return CacheStats{Hits: 10, Misses: 3, Invalidations: 2, Capacity: 64}
	})
	tel.SetAuditStats(func() AuditStats {
		return AuditStats{Total: 5, Allowed: 4, Denied: 1, Dropped: 7}
	})
	tel.Admission(true)
	tel.Admission(false)
	s := tel.Snapshot()
	if len(s.Guards) != 2 || s.Guards[0].Name != "dac" || s.Guards[1].Name != "mac" {
		t.Fatalf("guards = %+v", s.Guards)
	}
	if s.Cache.Hits != 10 || s.Audit.Dropped != 7 {
		t.Fatalf("wired stats = %+v %+v", s.Cache, s.Audit)
	}
	if s.Admissions.Allowed != 1 || s.Admissions.Denied != 1 {
		t.Fatalf("admissions = %+v", s.Admissions)
	}
}

func TestWritePromOutput(t *testing.T) {
	tel := newTestTelemetry(Options{Mode: ModeFull})
	tel.RegisterGuards("dac", "mac")
	tel.Mediation(0, true)
	tel.Mediation(1, false)
	tel.SetCacheStats(func() CacheStats { return CacheStats{Hits: 8, Misses: 2} })
	tr := tel.StartTrace("call", "a", "/x", "read")
	tr.Guard("dac", true, "", 250*time.Nanosecond)
	tr.Finish(1, true, "")

	var b strings.Builder
	if err := WriteProm(&b, tel.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`secext_mediations_total{kind="call",verdict="allowed"} 1`,
		`secext_mediations_total{kind="data",verdict="denied"} 1`,
		`secext_decision_cache_hits_total 8`,
		`secext_decision_cache_misses_total 2`,
		`secext_guard_eval_seconds_bucket{guard="dac",le="+Inf"} 1`,
		`secext_guard_eval_seconds_count{guard="mac"} 0`,
		`secext_mediation_seconds_count 1`,
		`secext_traces_sampled_total 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q\n%s", want, out)
		}
	}
	// Basic format sanity: every non-comment line is "name{labels} value"
	// or "name value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed prom line %q", line)
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	tel := newTestTelemetry(Options{Mode: ModeFull})
	tr := tel.StartTrace("call", "alice", "/svc/x", "execute")
	tr.Guard("dac", false, "acl: no execute", time.Microsecond)
	tr.Finish(3, false, "denied")
	srv := httptest.NewServer(tel.HTTPHandler())
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String(), resp.Header.Get("Content-Type")
	}

	metrics, ct := get("/metrics")
	if !strings.Contains(ct, "text/plain") || !strings.Contains(metrics, "secext_mediations_total") {
		t.Fatalf("/metrics: ct=%q body=%q", ct, metrics[:min(len(metrics), 200)])
	}

	stats, ct := get("/debug/stats")
	if !strings.Contains(ct, "application/json") {
		t.Fatalf("/debug/stats content type %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(stats), &snap); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	if snap.Mode != "full" {
		t.Fatalf("snapshot mode = %q", snap.Mode)
	}

	body, _ := get("/debug/trace/recent?n=5&denied=1")
	var traces []Trace
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("traces not JSON: %v\n%s", err, body)
	}
	if len(traces) != 1 || traces[0].DeniedBy != "dac" {
		t.Fatalf("traces = %+v", traces)
	}
	text, _ := get("/debug/trace/recent?text=1")
	if !strings.Contains(text, "denied-by=dac") {
		t.Fatalf("text render = %q", text)
	}
	if bad, _ := get("/debug/trace/recent?n=potato"); !strings.Contains(bad, "bad n") {
		t.Fatalf("bad n accepted: %q", bad)
	}

	// Nil telemetry still serves (zero) endpoints.
	var nilTel *Telemetry
	nilSrv := httptest.NewServer(nilTel.HTTPHandler())
	defer nilSrv.Close()
	resp, err := nilSrv.Client().Get(nilSrv.URL + "/metrics")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("nil /metrics: %v %v", err, resp)
	}
	resp.Body.Close()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestPromQuote: label values escape exactly the three bytes the
// exposition format defines — backslash, double quote, line feed —
// and pass everything else (tabs, UTF-8) through literally, which is
// where strconv.Quote would corrupt the output.
func TestPromQuote(t *testing.T) {
	cases := []struct{ in, want string }{
		{"dac", `"dac"`},
		{`he said "hi"`, `"he said \"hi\""`},
		{`back\slash`, `"back\\slash"`},
		{"line\nfeed", `"line\nfeed"`},
		{"tab\there", "\"tab\there\""},
		{"classé ⊑ ⊤", `"classé ⊑ ⊤"`},
		{"", `""`},
	}
	for _, tc := range cases {
		if got := promQuote(tc.in); got != tc.want {
			t.Errorf("promQuote(%q) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

// TestPromLabelEscaping: a quote-bearing name flows through WriteProm
// as a correctly escaped label value. Guard names carry arbitrary
// strings (a quota guard may embed the subject it meters, e.g.
// quota("o'brien \"admin\"")), so the guard label is the path that
// must never emit an unescaped quote.
func TestPromLabelEscaping(t *testing.T) {
	tel := newTestTelemetry(Options{Mode: ModeFull})
	tel.RegisterGuards(`quota("o'brien \"admin\"")`)

	var b strings.Builder
	if err := WriteProm(&b, tel.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := `guard="quota(\"o'brien \\\"admin\\\"\")"`
	if !strings.Contains(out, want) {
		t.Fatalf("prom output missing escaped label %s\n%s", want, out)
	}
	// No line may contain an unescaped interior quote: strip every
	// \\ and \" and what remains must have exactly the delimiter quotes.
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "guard=") {
			continue
		}
		clean := strings.ReplaceAll(strings.ReplaceAll(line, `\\`, ``), `\"`, ``)
		if n := strings.Count(clean, `"`); n%2 != 0 {
			t.Errorf("odd quote count after unescaping: %q", line)
		}
	}
}

// TestPromDivergenceMetrics: the shadow monitor counters and journal
// gauge render under their documented metric names.
func TestPromDivergenceMetrics(t *testing.T) {
	tel := newTestTelemetry(Options{})
	tel.SetNamesStats(func() NamesStats {
		return NamesStats{ShadowChecks: 41, Divergences: 2, JournalRecords: 17}
	})
	var b strings.Builder
	if err := WriteProm(&b, tel.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"secext_compiled_shadow_checks_total 41",
		"secext_compiled_divergence_total 2",
		"secext_epoch_journal_records 17",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
}

// TestPromFootprintMetrics: the per-epoch footprint gauges and interner
// counters render under the secext_epoch_footprint_* / secext_interner_*
// metric names.
func TestPromFootprintMetrics(t *testing.T) {
	tel := newTestTelemetry(Options{})
	tel.SetNamesStats(func() NamesStats {
		return NamesStats{Footprint: FootprintStats{
			Nodes: 100, Leaves: 60, Directories: 40,
			OwnedNodes: 7, SharedNodes: 93,
			ChildSliceBytes: 3200, PathBytes: 1800, NameBytes: 0,
			NodeStructBytes: 12800, ACLBytes: 640, TotalBytes: 18440,
			BytesPerNode: 184.4, ACLRefs: 100, DistinctACLs: 4, ACLDedupRatio: 25,
			InternedStrings: 99, InternedBytes: 1800,
			InternHits: 5, InternMisses: 99, InternResets: 1,
			ACLCanonDistinct: 4, ACLCanonDedups: 96, ACLCanonResets: 0,
		}}
	})
	var b strings.Builder
	if err := WriteProm(&b, tel.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`secext_epoch_footprint_nodes{role="all"} 100`,
		`secext_epoch_footprint_nodes{role="leaf"} 60`,
		`secext_epoch_footprint_sharing{nodes="owned"} 7`,
		`secext_epoch_footprint_sharing{nodes="shared"} 93`,
		`secext_epoch_footprint_bytes{component="child_slices"} 3200`,
		`secext_epoch_footprint_bytes{component="total"} 18440`,
		`secext_epoch_footprint_bytes_per_node 184.4`,
		`secext_epoch_footprint_acl_dedupe_ratio 25`,
		`secext_interner_strings 99`,
		`secext_interner_lookups_total{outcome="miss"} 99`,
		`secext_interner_resets_total{table="paths"} 1`,
		`secext_acl_canon_dedups_total 96`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
}

// TestTraceEpochRendering: EpochVersion stamps the trace header field
// (rendered as epoch=N) while keeping the epoch span for span-level
// consumers; an unstamped trace omits the field.
func TestTraceEpochRendering(t *testing.T) {
	tel := newTestTelemetry(Options{Mode: ModeFull})
	tr := tel.StartTrace("data", "alice", "/fs/x", "read")
	tr.EpochVersion(7)
	tr.Finish(1, true, "")

	got := tel.Recent(1, false)[0]
	if got.Epoch != 7 {
		t.Fatalf("trace.Epoch = %d", got.Epoch)
	}
	if got.Spans[0].Name != "epoch" || got.Spans[0].Detail != "v=7" {
		t.Fatalf("epoch span = %+v", got.Spans[0])
	}
	if line := got.String(); !strings.Contains(line, " epoch=7 ") {
		t.Errorf("render %q missing epoch=7", line)
	}

	tr = tel.StartTrace("data", "bob", "/fs/y", "read")
	tr.Finish(2, true, "")
	if line := tel.Recent(1, false)[0].String(); strings.Contains(line, "epoch=") {
		t.Errorf("unstamped trace renders an epoch: %q", line)
	}
}

// TestEpochTransitionString covers the render variants: registry
// provenance, compile cost shown for real builds and suppressed for
// reuse, registry-less records.
func TestEpochTransitionString(t *testing.T) {
	base := EpochTransition{
		Version: 12, Time: time.Unix(0, 0).UTC(), Shards: []string{"names", "registry"},
		RegistryVersion: 4, Compile: "incremental",
		CompileNS: 1500, PublishNS: 42000,
	}
	s := base.String()
	for _, want := range []string{
		"epoch v12", "shards=names+registry",
		"registry=v4 compile=incremental(1.5µs)", "publish=42µs",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("render %q missing %q", s, want)
		}
	}

	reused := base
	reused.Compile = "reused"
	if s := reused.String(); !strings.Contains(s, "compile=reused publish=") {
		t.Errorf("reused render = %q", s)
	}

	bare := EpochTransition{Version: 2, Shards: []string{"names"}, Compile: "none"}
	s = bare.String()
	if strings.Contains(s, "registry=") || strings.Contains(s, "compile=none(") {
		t.Errorf("bare render = %q", s)
	}
}

// TestEpochJournalAndExplainWiring: the injected hooks round-trip, and
// both are nil-safe before wiring and on a nil receiver.
func TestEpochJournalAndExplainWiring(t *testing.T) {
	var nilTel *Telemetry
	if recs := nilTel.EpochJournal(5); recs != nil {
		t.Errorf("nil telemetry journal = %v", recs)
	}
	if _, _, err := nilTel.Explain("a", "/x", "read"); err == nil {
		t.Error("nil telemetry explain did not error")
	}

	tel := newTestTelemetry(Options{})
	if recs := tel.EpochJournal(5); recs != nil {
		t.Errorf("unwired journal = %v", recs)
	}
	if _, _, err := tel.Explain("a", "/x", "read"); err == nil {
		t.Error("unwired explain did not error")
	}

	tel.SetEpochJournal(func(n int) []EpochTransition {
		return []EpochTransition{{Version: uint64(n)}}
	})
	if recs := tel.EpochJournal(9); len(recs) != 1 || recs[0].Version != 9 {
		t.Errorf("wired journal = %v", recs)
	}
	tel.SetExplain(func(subject, path, mode string) (string, []byte, error) {
		return "TEXT " + subject, []byte(`{"ok":true}`), nil
	})
	text, body, err := tel.Explain("alice", "/x", "read")
	if err != nil || text != "TEXT alice" || string(body) != `{"ok":true}` {
		t.Errorf("wired explain = (%q, %q, %v)", text, body, err)
	}
}

// TestHTTPEpochsAndExplain drives the two new debug endpoints through
// a real HTTP server: JSON and text renderings, parameter validation,
// and error propagation from the explain hook.
func TestHTTPEpochsAndExplain(t *testing.T) {
	tel := newTestTelemetry(Options{})
	tel.SetEpochJournal(func(n int) []EpochTransition {
		return []EpochTransition{{Version: 5, Shards: []string{"names"}, Compile: "full"}}
	})
	tel.SetExplain(func(subject, path, mode string) (string, []byte, error) {
		if subject == "nobody" {
			return "", nil, fmt.Errorf("unknown principal %q", subject)
		}
		return "ALLOW " + subject, []byte(`{"allowed":true}`), nil
	})
	srv := httptest.NewServer(tel.HTTPHandler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	if code, body := get("/debug/epochs"); code != 200 || !strings.Contains(body, `"version": 5`) {
		t.Errorf("/debug/epochs = %d %q", code, body)
	}
	if _, body := get("/debug/epochs?text=1&n=3"); !strings.Contains(body, "epoch v5") {
		t.Errorf("/debug/epochs text = %q", body)
	}
	if code, body := get("/debug/epochs?n=potato"); code != 400 || !strings.Contains(body, "bad n") {
		t.Errorf("bad n = %d %q", code, body)
	}

	if code, body := get("/debug/explain?subject=alice&path=/x&mode=read&text=1"); code != 200 || body != "ALLOW alice" {
		t.Errorf("explain text = %d %q", code, body)
	}
	if code, body := get("/debug/explain?subject=alice&path=/x&mode=read"); code != 200 || body != `{"allowed":true}` {
		t.Errorf("explain json = %d %q", code, body)
	}
	if code, body := get("/debug/explain?subject=alice"); code != 400 || !strings.Contains(body, "need subject=") {
		t.Errorf("missing params = %d %q", code, body)
	}
	if code, body := get("/debug/explain?subject=nobody&path=/x&mode=read"); code != 400 || !strings.Contains(body, "unknown principal") {
		t.Errorf("hook error = %d %q", code, body)
	}

	// A nil telemetry serves the endpoints too: empty journal, explain
	// reports the unwired condition instead of crashing.
	var nilTel *Telemetry
	nilSrv := httptest.NewServer(nilTel.HTTPHandler())
	defer nilSrv.Close()
	resp, err := nilSrv.Client().Get(nilSrv.URL + "/debug/epochs")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("nil /debug/epochs: %v %v", err, resp)
	}
	resp.Body.Close()
	resp, err = nilSrv.Client().Get(nilSrv.URL + "/debug/explain?subject=a&path=/x&mode=read")
	if err != nil || resp.StatusCode != 400 {
		t.Fatalf("nil /debug/explain: %v %v", err, resp)
	}
	resp.Body.Close()
}

// TestReplicationWiring: the replication hook flows into Snapshot,
// WriteProm, and /debug/replicas; an unwired telemetry reports the
// absence cleanly everywhere.
func TestReplicationWiring(t *testing.T) {
	tel := newTestTelemetry(Options{})

	// Unwired: accessor says no, the endpoint 404s, prom emits nothing.
	if _, ok := tel.Replication(); ok {
		t.Fatal("Replication() reported wired before SetReplication")
	}
	var hist Histogram
	hist.Observe(3 * time.Millisecond)
	stats := ReplicationStats{
		PrimaryVersion:  9,
		Snapshots:       2,
		Deltas:          40,
		SnapshotBytes:   5000,
		DeltaBytes:      6000,
		BarrierTimeouts: 1,
		BarrierWait:     hist.Snapshot(),
		Peers: []ReplicaPeerStat{
			{Name: `rep"1`, Acked: 7, Lag: 2, Deltas: 40, DeltaBytes: 6000, SnapshotBytes: 2500},
		},
	}
	var b strings.Builder
	if err := WriteProm(&b, tel.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "secext_replica_") {
		t.Fatal("prom carries replica metrics with no publisher wired")
	}

	tel.SetReplication(func() ReplicationStats { return stats })
	got, ok := tel.Replication()
	if !ok || got.PrimaryVersion != 9 || len(got.Peers) != 1 {
		t.Fatalf("Replication() = %+v, %v", got, ok)
	}

	b.Reset()
	if err := WriteProm(&b, tel.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		"secext_replica_primary_version 9",
		"secext_replica_peers 1",
		`secext_replica_lag{peer="rep\"1"} 2`,
		`secext_replica_messages_total{kind="snapshot"} 2`,
		`secext_replica_messages_total{kind="delta"} 40`,
		`secext_replica_bytes_total{kind="snapshot"} 5000`,
		`secext_replica_bytes_total{kind="delta"} 6000`,
		"secext_replica_barrier_timeouts_total 1",
		"secext_replica_barrier_wait_seconds_count 1",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("prom output missing %q", w)
		}
	}

	srv := httptest.NewServer(tel.HTTPHandler())
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}
	if code, body := get("/debug/replicas"); code != 200 ||
		!strings.Contains(body, `"primary_version": 9`) || !strings.Contains(body, `rep\"1`) {
		t.Errorf("/debug/replicas json = %d %q", code, body)
	}
	if code, body := get("/debug/replicas?text=1"); code != 200 ||
		!strings.Contains(body, "primary=v9 peers=1") || !strings.Contains(body, "acked=v7 lag=2") {
		t.Errorf("/debug/replicas text = %d %q", code, body)
	}

	// Detach: back to 404.
	tel.SetReplication(nil)
	if code, _ := get("/debug/replicas"); code != 404 {
		t.Errorf("/debug/replicas after detach = %d, want 404", code)
	}
	// Nil receiver: the setters and accessor are no-ops, not panics.
	var nilTel *Telemetry
	nilTel.SetReplication(func() ReplicationStats { return stats })
	if _, ok := nilTel.Replication(); ok {
		t.Error("nil telemetry reported a wired publisher")
	}
}
