// Command benchtab regenerates every table in EXPERIMENTS.md: the
// scenario reproductions S1-S3 (the paper's qualitative walk-throughs,
// with asserted outcomes), the quantitative characterizations E1-E20 and
// the ablations A1-A3.
//
// Usage:
//
//	benchtab                 # run everything
//	benchtab S1 E7 E12       # run selected experiments
//	benchtab -json . E11     # also write BENCH_E11.json with the rows
//
// Only the selected experiments run. An unknown ID prints the usage and
// exits 2 before anything runs.
// With -json DIR, each experiment additionally writes its structured
// rows to DIR/BENCH_<ID>.json for machine consumption (plots, CI
// regression tracking of the parallel and contention tables).
//
// Exit status is non-zero if any scenario deviates from the paper's
// stated outcome.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"secext/internal/experiments"
)

// benchFile is the JSON shape of one BENCH_<ID>.json document.
type benchFile struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Err    string     `json:"err,omitempty"`
}

func writeJSON(dir string, r experiments.Result) error {
	doc := benchFile{ID: r.ID, Title: r.Title, Header: r.Header, Rows: r.Rows}
	if r.Err != nil {
		doc.Err = r.Err.Error()
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+r.ID+".json"), append(data, '\n'), 0o644)
}

func main() {
	jsonDir := flag.String("json", "", "directory to write BENCH_<ID>.json files with structured rows")
	runners := experiments.Runners()
	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.ID
	}
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchtab [-json DIR] [ID ...]\nIDs: %s\n", strings.Join(ids, " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	want := map[string]bool{}
	for _, a := range flag.Args() {
		id := strings.ToUpper(a)
		if !slices.Contains(ids, id) {
			fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q\n", a)
			flag.Usage()
			os.Exit(2)
		}
		want[id] = true
	}

	failed := 0
	for _, runner := range runners {
		if len(want) > 0 && !want[runner.ID] {
			continue
		}
		r := runner.Run()
		fmt.Printf("== %s: %s\n\n%s\n", r.ID, r.Title, r.Table)
		if r.Err != nil {
			fmt.Printf("!! %s FAILED: %v\n\n", r.ID, r.Err)
			failed++
		}
		if *jsonDir != "" {
			if err := writeJSON(*jsonDir, r); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
				failed++
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) deviated from expected outcomes\n", failed)
		os.Exit(1)
	}
}
