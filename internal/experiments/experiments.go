// Package experiments implements the evaluation harness of DESIGN.md:
// the paper ("Security for Extensible Systems", HotOS 1997) is a
// position paper with no tables or figures, so S1-S3 reproduce its
// qualitative walk-throughs as executable artifacts with asserted
// outcomes, and E1-E10 provide the quantitative characterization the
// paper calls for but does not include. cmd/benchtab prints every
// table; bench_test.go exposes the timed ones as testing.B benchmarks.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Result is one experiment's rendered output.
type Result struct {
	ID    string // "S1", "E7", ...
	Title string
	Table string // formatted text table
	Err   error  // non-nil if the scenario's asserted outcome failed

	// Header and Rows are the structured form of Table, for machine
	// consumers (cmd/benchtab -json writes them to BENCH_<ID>.json).
	Header []string
	Rows   [][]string
}

// setTable renders t into the result, keeping the structured rows
// alongside the formatted text.
func (r *Result) setTable(t *table) {
	r.Table = t.String()
	r.Header = t.header
	r.Rows = t.rows
}

// Runner names one experiment without running it; cmd/benchtab iterates
// Runners so a selection executes only the selected experiments.
type Runner struct {
	ID  string
	Run func() Result
}

// Runners lists every experiment in canonical order.
func Runners() []Runner {
	return []Runner{
		{"S1", S1}, {"S2", S2}, {"S3", S3}, {"S4", S4},
		{"E1", E1}, {"E2", E2}, {"E3", E3}, {"E5", E5},
		{"E6", E6}, {"E7", E7}, {"E8", E8}, {"E9", E9}, {"E10", E10},
		{"E11", E11}, {"E12", E12}, {"E13", E13}, {"E16", E16}, {"E17", E17},
		{"E19", E19}, {"E20", E20},
		{"A1", A1}, {"A2", A2}, {"A3", A3},
	}
}

// All runs every experiment in order. Timing experiments take a few
// hundred milliseconds each.
func All() []Result {
	runners := Runners()
	out := make([]Result, 0, len(runners))
	for _, r := range runners {
		out = append(out, r.Run())
	}
	return out
}

// measure times fn, auto-scaling iterations until the run lasts at
// least minDur, and returns ns/op.
func measure(minDur time.Duration, fn func(n int)) float64 {
	n := 1
	for {
		start := time.Now()
		fn(n)
		elapsed := time.Since(start)
		if elapsed >= minDur || n >= 1<<24 {
			return float64(elapsed.Nanoseconds()) / float64(n)
		}
		// Grow toward the target with headroom.
		next := n * 4
		if elapsed > 0 {
			est := int(float64(n) * float64(minDur) / float64(elapsed) * 1.2)
			if est > n {
				next = est
			}
		}
		if next > 1<<24 {
			next = 1 << 24
		}
		n = next
	}
}

const defaultMinDur = 20 * time.Millisecond

// table is a minimal fixed-width text table builder.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func ns(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2f ms", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2f µs", v/1e3)
	default:
		return fmt.Sprintf("%.1f ns", v)
	}
}

func yes(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func verdict(allowed bool) string {
	if allowed {
		return "ALLOW"
	}
	return "deny"
}
