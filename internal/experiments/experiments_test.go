package experiments

import (
	"strings"
	"testing"
	"time"

	"secext"
	"secext/internal/telemetry"
)

func TestS1Scenario(t *testing.T) {
	r := S1()
	if r.Err != nil {
		t.Fatalf("S1: %v\n%s", r.Err, r.Table)
	}
	if !strings.Contains(r.Table, "outsider") || !strings.Contains(r.Table, "ALLOW") {
		t.Errorf("S1 table malformed:\n%s", r.Table)
	}
	// Every row must match the paper.
	if strings.Contains(r.Table, "  no") {
		t.Errorf("S1 has deviating rows:\n%s", r.Table)
	}
}

func TestS2Scenario(t *testing.T) {
	r := S2()
	if r.Err != nil {
		t.Fatalf("S2: %v\n%s", r.Err, r.Table)
	}
	if !strings.Contains(r.Table, "java-sandbox") || !strings.Contains(r.Table, "secext") {
		t.Errorf("S2 table malformed:\n%s", r.Table)
	}
}

func TestS3Scenario(t *testing.T) {
	r := S3()
	if r.Err != nil {
		t.Fatalf("S3: %v\n%s", r.Err, r.Table)
	}
}

func TestS4Scenario(t *testing.T) {
	r := S4()
	if r.Err != nil {
		t.Fatalf("S4: %v\n%s", r.Err, r.Table)
	}
	if strings.Contains(r.Table, "  no") {
		t.Errorf("S4 has deviating rows:\n%s", r.Table)
	}
}

func TestE9Expressiveness(t *testing.T) {
	r := E9()
	if r.Err != nil {
		t.Fatalf("E9: %v\n%s", r.Err, r.Table)
	}
	counts := E9Counts()
	if counts["secext"] != 12 {
		t.Errorf("secext expresses %d/12", counts["secext"])
	}
	// The ordering the paper's prose implies: the richer the mechanism,
	// the more of the requirements it covers.
	if !(counts["secext"] > counts["ntacl"] &&
		counts["ntacl"] > counts["unix"] &&
		counts["unix"] > counts["sandbox"]) {
		t.Errorf("expressiveness ordering violated: %v", counts)
	}
	if counts["sandbox"] != 0 || counts["domains"] != 0 {
		t.Errorf("sandbox/domains should express none of the 12: %v", counts)
	}
}

func TestE10WriteAppend(t *testing.T) {
	r := E10()
	if r.Err != nil {
		t.Fatalf("E10: %v\n%s", r.Err, r.Table)
	}
	if strings.Contains(r.Table, "  no\n") {
		t.Errorf("E10 has unexpected outcomes:\n%s", r.Table)
	}
}

func TestMeasureScalesIterations(t *testing.T) {
	calls := 0
	v := measure(2*time.Millisecond, func(n int) {
		calls++
		time.Sleep(time.Duration(n) * 10 * time.Microsecond)
	})
	if v <= 0 {
		t.Errorf("measure = %v", v)
	}
	if calls < 2 {
		t.Errorf("measure must rescale at least once, calls = %d", calls)
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &table{header: []string{"a", "long-header"}}
	tb.add("x", "y")
	s := tb.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 3 {
		t.Fatalf("table = %q", s)
	}
	if !strings.HasPrefix(lines[1], "-") {
		t.Errorf("separator missing: %q", lines[1])
	}
}

func TestNsFormatting(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{42, "42.0 ns"},
		{4200, "4.20 µs"},
		{4.2e6, "4.20 ms"},
	}
	for _, tc := range cases {
		if got := ns(tc.v); got != tc.want {
			t.Errorf("ns(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

// noiseRounds is how many interleaved off/on rounds the warm-path
// noise tests take; each arm is judged by its best round.
const noiseRounds = 5

// warmCheck builds a telemetry world in mode and returns its warm
// mediation loop, primed so the decision cache holds the verdict.
func warmCheck(t *testing.T, mode telemetry.Mode) func(n int) {
	t.Helper()
	w, ctx, err := telWorld(mode, false)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Sys.Names().Current().Compiled() {
		t.Fatal("epoch not compiled; the shadow monitor is a no-op")
	}
	check := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := w.Sys.CheckData(ctx, "/fs/f", secext.Read); err != nil {
				t.Error(err)
				return
			}
		}
	}
	check(1)
	return check
}

// bestInterleaved measures the off and on loops in alternation for
// noiseRounds rounds and returns each one's fastest round. Alternating
// spreads a burst of load from other test packages over both arms,
// and the minimum discards the rounds it hit, so the comparison prices
// the code, not the scheduler.
func bestInterleaved(off, on func(n int)) (bestOff, bestOn float64) {
	for r := 0; r < noiseRounds; r++ {
		a, b := measure(defaultMinDur, off), measure(defaultMinDur, on)
		if r == 0 || a < bestOff {
			bestOff = a
		}
		if r == 0 || b < bestOn {
			bestOn = b
		}
	}
	return bestOff, bestOn
}

// TestE13DefaultWithinNoise asserts the tentpole cost claim: the
// default telemetry configuration (metrics on, traces sampled 1/256)
// stays close to telemetry-off on the warm mediation path. The bound is
// generous (2x) because CI machines are noisy; the honest figure is the
// E13 table, where the two normally land within a few percent — the
// unsampled path pays one atomic add plus one atomic load and reads no
// clocks.
func TestE13DefaultWithinNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiments skipped in -short mode")
	}
	off, def := bestInterleaved(warmCheck(t, telemetry.ModeOff), warmCheck(t, telemetry.ModeSampled))
	if def > 2*off {
		t.Errorf("default telemetry warm path %.1fns vs off %.1fns: over 2x", def, off)
	}
}

// TestE18SampledWithinNoise asserts PR 8's cost claim: with the shadow
// divergence monitor riding the default sampler, the warm mediation
// path stays close to telemetry-off — the monitor only runs on traced,
// uncached checks, so an unsampled cache hit pays nothing new. The
// bound mirrors TestE13DefaultWithinNoise's generous 2x for noisy CI;
// the honest figure is the E18 table.
func TestE18SampledWithinNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiments skipped in -short mode")
	}
	off, def := bestInterleaved(warmCheck(t, telemetry.ModeOff), warmCheck(t, telemetry.ModeSampled))
	if def > 2*off {
		t.Errorf("sampled warm path %.1fns vs off %.1fns: shadow monitor broke the noise band", def, off)
	}
}

// TestTimingExperimentsRun executes the timed experiments with the
// default budget; in -short mode it is skipped to keep CI fast.
func TestTimingExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiments skipped in -short mode")
	}
	for _, r := range []Result{E1(), E2(), E3(), E4(), E5(), E6(), E7(), E8(), A1(), A2(), A3()} {
		if r.Err != nil {
			t.Errorf("%s: %v", r.ID, r.Err)
		}
		if !strings.Contains(r.Table, "ns") && !strings.Contains(r.Table, "µs") &&
			!strings.Contains(r.Table, "ms") {
			t.Errorf("%s table has no timings:\n%s", r.ID, r.Table)
		}
	}
}
