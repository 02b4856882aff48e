package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchtab-test")
	if err != nil {
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binPath = filepath.Join(dir, "benchtab")
	build := exec.Command("go", "build", "-o", binPath, ".")
	if out, err := build.CombinedOutput(); err != nil {
		os.Stderr.Write(out)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// TestScenarioSubset runs the fast, deterministic experiments and
// checks they report their expected outcomes.
func TestScenarioSubset(t *testing.T) {
	out, err := exec.Command(binPath, "S1", "S2", "S4", "E9").CombinedOutput()
	if err != nil {
		t.Fatalf("benchtab: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"== S1:", "== S2:", "== S4:", "== E9:",
		"matches paper", "12/12",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(s, "FAILED") {
		t.Errorf("experiments failed:\n%s", s)
	}
	// Unselected experiments must not run.
	if strings.Contains(s, "== E1:") {
		t.Error("selection filter broken")
	}
}

// TestJSONEmission checks -json writes a BENCH_<ID>.json document whose
// structured rows mirror the printed table.
func TestJSONEmission(t *testing.T) {
	dir := t.TempDir()
	out, err := exec.Command(binPath, "-json", dir, "S4").CombinedOutput()
	if err != nil {
		t.Fatalf("benchtab -json: %v\n%s", err, out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_S4.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Err    string     `json:"err"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("BENCH_S4.json: %v\n%s", err, data)
	}
	if doc.ID != "S4" || doc.Err != "" {
		t.Errorf("doc = %+v", doc)
	}
	if len(doc.Header) == 0 || len(doc.Rows) == 0 {
		t.Errorf("structured rows missing: header=%v rows=%v", doc.Header, doc.Rows)
	}
	for _, row := range doc.Rows {
		if len(row) != len(doc.Header) {
			t.Errorf("row width %d != header width %d: %v", len(row), len(doc.Header), row)
		}
	}
}

// TestUnknownSelectionRunsNothing checks that an ID with no experiment,
// including a retired one, is a usage error: nothing runs, the usage
// names the valid IDs, and the exit status is 2.
func TestUnknownSelectionRunsNothing(t *testing.T) {
	for _, args := range [][]string{{"Z9"}, {"E14"}, {"S1", "E99"}} {
		out, err := exec.Command(binPath, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("benchtab %v: err = %v, want exit status 2\n%s", args, err, out)
		}
		if strings.Contains(string(out), "== ") {
			t.Errorf("benchtab %v: unknown id must select nothing:\n%s", args, out)
		}
		if !strings.Contains(string(out), "usage: benchtab") || !strings.Contains(string(out), "E16") {
			t.Errorf("benchtab %v: usage with the valid IDs missing:\n%s", args, out)
		}
	}
}
