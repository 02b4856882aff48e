package experiments

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCatalogueConsistent keeps the experiment catalogue in step with
// the files that name experiments: EXPERIMENTS.md has one section per
// Runner and no section for an experiment that no longer runs, every
// BENCH_<ID>.json at the repository root was written by a Runner, and
// every benchtab invocation in the Makefile selects Runners only.
func TestCatalogueConsistent(t *testing.T) {
	const root = "../.."
	known := map[string]bool{}
	for _, r := range Runners() {
		known[r.ID] = true
	}

	doc, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	headed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## ([A-Z]+[0-9]+) —`).FindAllStringSubmatch(string(doc), -1) {
		headed[m[1]] = true
		if !known[m[1]] {
			t.Errorf("EXPERIMENTS.md has a section for %s, which no Runner runs", m[1])
		}
	}
	for id := range known {
		if !headed[id] {
			t.Errorf("Runner %s has no \"## %s —\" section in EXPERIMENTS.md", id, id)
		}
	}

	files, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		id := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json")
		if !known[id] {
			t.Errorf("%s names no Runner", filepath.Base(f))
		}
	}

	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	calls := regexp.MustCompile(`benchtab(?:\s+-json\s+\S+)?((?:[ \t]+[A-Z]+[0-9]+\b)*)`).FindAllStringSubmatch(string(mk), -1)
	if len(calls) == 0 {
		t.Fatal("Makefile has no benchtab invocation; the pattern is stale")
	}
	for _, m := range calls {
		for _, id := range strings.Fields(m[1]) {
			if !known[id] {
				t.Errorf("Makefile runs benchtab %s, which names no Runner", id)
			}
		}
	}
}
