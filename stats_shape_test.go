package secext_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"secext"
	"secext/internal/monitor"
	"secext/internal/replica"
)

// passGuard is a pure guard that allows everything; it lengthens the
// stack so the per-guard telemetry families carry more than the
// default two series.
type passGuard struct{}

func (passGuard) Name() string                          { return "pass" }
func (passGuard) Check(monitor.Request) monitor.Verdict { return monitor.Verdict{Allow: true} }

// observedWorld builds a fully traced world with a three-guard stack
// and a replication publisher that has one subscribed peer, then drives
// a fixed sequence of edits and decisions, so every telemetry family
// and every optional field is populated with deterministic counts.
func observedWorld(t *testing.T) *secext.World {
	t.Helper()
	w, err := secext.NewWorld(secext.WorldOptions{
		Levels:    []string{"others", "organization"},
		Guards:    []secext.Guard{passGuard{}},
		Telemetry: secext.TelemetryOptions{Mode: secext.TelemetryFull},
	})
	if err != nil {
		t.Fatal(err)
	}
	pub := replica.NewPublisher(w.Sys)
	t.Cleanup(pub.Close)
	w.Telemetry().SetReplication(pub.Stats)
	if _, _, err := pub.Subscribe("shape"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.AddPrincipals("organization", "alice", "eve"); err != nil {
		t.Fatal(err)
	}
	actx, err := w.Sys.NewContext("alice")
	if err != nil {
		t.Fatal(err)
	}
	ectx, err := w.Sys.NewContext("eve")
	if err != nil {
		t.Fatal(err)
	}
	private := secext.NewACL(secext.Allow("alice", secext.Read|secext.Write))
	if err := w.FS.Create(actx, "/fs/secret", private, actx.Class()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.CheckData(actx, "/fs/secret", secext.Read); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.CheckData(ectx, "/fs/secret", secext.Read); err == nil {
		t.Fatal("eve reading alice's file should be denied")
	}
	return w
}

// get serves one telemetry endpoint in-process.
func get(t *testing.T, w *secext.World, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	w.Telemetry().HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// jsonKeys adds every key path under v to out; array elements share
// one "[]" path segment.
func jsonKeys(prefix string, v any, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			jsonKeys(p, child, out)
		}
	case []any:
		for _, child := range v {
			jsonKeys(prefix+"[]", child, out)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// promSeries returns the identity of every sample line: the metric name
// and its label set without the sample value. A histogram bucket's le
// bound depends on observed latencies, so it is reduced to "le=*".
func promSeries(t *testing.T, text []byte) []string {
	t.Helper()
	set := make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(string(text)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		id := line[:sp]
		for _, sep := range []string{"{", ","} {
			if i := strings.Index(id, sep+`le="`); i >= 0 {
				i += len(sep)
				j := strings.IndexByte(id[i+4:], '"')
				id = id[:i] + "le=*" + id[i+4+j+1:]
			}
		}
		set[id] = true
	}
	return sortedKeys(set)
}

// TestStatsShapeGolden pins what the observability surfaces expose: the
// key paths of /debug/stats (replication included), the keys of a
// /debug/epochs record, and the identity of every /metrics series, plus
// the counts a fixed workload must produce. A refactor of how the
// statistics are declared or wired must leave all of it unchanged; it
// also catches fields encoding/json drops when two embedded structs
// carry the same key.
func TestStatsShapeGolden(t *testing.T) {
	w := observedWorld(t)

	var b strings.Builder
	var stats any
	if err := json.Unmarshal(get(t, w, "/debug/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool)
	jsonKeys("", stats, keys)
	b.WriteString("== /debug/stats keys\n")
	for _, k := range sortedKeys(keys) {
		b.WriteString(k + "\n")
	}

	var epochs []map[string]any
	if err := json.Unmarshal(get(t, w, "/debug/epochs"), &epochs); err != nil {
		t.Fatal(err)
	}
	if len(epochs) == 0 {
		t.Fatal("/debug/epochs returned no records")
	}
	ekeys := make(map[string]bool)
	for _, rec := range epochs {
		jsonKeys("", rec, ekeys)
	}
	b.WriteString("== /debug/epochs record keys\n")
	for _, k := range sortedKeys(ekeys) {
		b.WriteString(k + "\n")
	}

	b.WriteString("== /metrics series\n")
	for _, s := range promSeries(t, get(t, w, "/metrics")) {
		b.WriteString(s + "\n")
	}

	snap := w.Telemetry().Snapshot()
	n, fp := snap.Names, snap.Names.Footprint
	b.WriteString("== values\n")
	fmt.Fprintf(&b, "epoch_version %d\n", n.Version)
	fmt.Fprintf(&b, "publishes %d\n", n.Publishes)
	fmt.Fprintf(&b, "footprint_epoch_version %d\n", fp.EpochVersion)
	fmt.Fprintf(&b, "footprint_nodes %d leaves %d directories %d\n", fp.Nodes, fp.Leaves, fp.Directories)
	fmt.Fprintf(&b, "footprint_child_slots %d\n", fp.ChildSlots)
	fmt.Fprintf(&b, "footprint_bytes node_structs %d child_slices %d paths %d names %d acls %d total %d\n",
		fp.NodeStructBytes, fp.ChildSliceBytes, fp.PathBytes, fp.NameBytes, fp.ACLBytes, fp.TotalBytes)
	fmt.Fprintf(&b, "footprint_acls refs %d distinct %d\n", fp.ACLRefs, fp.DistinctACLs)

	const golden = "testdata/stats_shape.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("telemetry shape differs from %s:\n%s\nfull output:\n%s", golden, lineDiff(string(want), got), got)
	}
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got string) string {
	count := func(s string) map[string]int {
		m := make(map[string]int)
		for _, l := range strings.Split(s, "\n") {
			m[l]++
		}
		return m
	}
	w, g := count(want), count(got)
	var out []string
	for l, c := range w {
		if g[l] < c {
			out = append(out, "- "+l)
		}
	}
	for l, c := range g {
		if w[l] < c {
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestPromExpositionWellFormed checks the /metrics page against the
// text format's family rules, which a Prometheus scrape enforces: each
// family has exactly one HELP and one TYPE line, both before its first
// sample, and the family's samples are contiguous. The world has a
// three-guard stack and a replication publisher, so every family the
// page can carry appears.
func TestPromExpositionWellFormed(t *testing.T) {
	w := observedWorld(t)
	var b strings.Builder
	if err := secext.WriteProm(&b, w.Telemetry().Snapshot()); err != nil {
		t.Fatal(err)
	}

	help, typ := make(map[string]int), make(map[string]string)
	closed := make(map[string]bool) // families whose samples have ended
	cur := ""
	for i, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" {
			switch f[1] {
			case "HELP":
				help[f[2]]++
				if help[f[2]] > 1 {
					t.Errorf("line %d: second HELP for %s", i+1, f[2])
				}
			case "TYPE":
				if _, dup := typ[f[2]]; dup {
					t.Errorf("line %d: second TYPE for %s", i+1, f[2])
				}
				if len(f) > 3 {
					typ[f[2]] = f[3]
				}
			}
			continue
		}
		name := line
		if j := strings.IndexAny(name, "{ "); j >= 0 {
			name = name[:j]
		}
		fam := name
		if _, ok := typ[fam]; !ok {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suf); base != name && typ[base] == "histogram" {
					fam = base
				}
			}
		}
		if _, ok := typ[fam]; !ok || help[fam] == 0 {
			t.Errorf("line %d: sample %q before its family's HELP and TYPE", i+1, line)
		}
		if fam != cur {
			if closed[fam] {
				t.Errorf("line %d: family %s resumes after another family's samples", i+1, fam)
			}
			closed[cur] = true
			cur = fam
		}
	}
	for fam := range typ {
		if help[fam] != 1 {
			t.Errorf("family %s has %d HELP lines", fam, help[fam])
		}
	}
}
