package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"msgorder/internal/obs"
)

// TestMain doubles as the real binary when re-exec'd with
// MOBENCH_AS_BINARY=1, so the exit-code tests observe the genuine
// process-level contract rather than run()'s error value.
func TestMain(m *testing.M) {
	if os.Getenv("MOBENCH_AS_BINARY") == "1" {
		os.Exit(mainExit(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// The experiments print to stdout; these smoke tests assert they run to
// completion without error (their content is asserted by the library
// test suites they are built on).

// TestTable1 prints T1 and pins every entry's cycle order and both
// classes to testdata/t1.golden; a paper/computed mismatch fails.
func TestTable1(t *testing.T) {
	rows, err := table1Rows()
	if err != nil {
		t.Fatal(err)
	}
	printTable1(rows)
	var lines []string
	for _, r := range rows {
		if r.Computed != r.Paper {
			t.Errorf("%s: computed class %s, paper says %s", r.Name, r.Computed, r.Paper)
		}
		lines = append(lines, fmt.Sprintf("%s order=%s paper=%s computed=%s", r.Name, r.Order, r.Paper, r.Computed))
	}
	checkGolden(t, "t1", lines)
}

func TestDiscussion(t *testing.T) {
	if err := discussion(); err != nil {
		t.Fatal(err)
	}
}

func TestInhibitory(t *testing.T) {
	if err := inhibitory(); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesis(t *testing.T) {
	if err := synthesis(); err != nil {
		t.Fatal(err)
	}
}

func TestLemma3(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded-universe sweep")
	}
	if err := lemma3(); err != nil {
		t.Fatal(err)
	}
}

// TestExploreExperiment prints T3b and pins every protocol's verdicts
// to testdata/t3b.golden: the sequential order count, the distinct
// final states, and the violating states per spec. Replays, pruning
// and time depend on the parallel search's schedule and stay out.
func TestExploreExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("schedule enumeration")
	}
	rows, err := exploreData(exploreSpecs)
	if err != nil {
		t.Fatal(err)
	}
	printExplore(rows)
	var lines []string
	for _, r := range rows {
		l := fmt.Sprintf("%s orders=%d states=%d", r.Protocol, r.Orders, r.Schedules)
		for _, s := range exploreSpecs {
			l += fmt.Sprintf(" %s=%d", s, r.Violations[s])
		}
		lines = append(lines, l)
	}
	checkGolden(t, "t3b", lines)
}

// TestFaultsExperiment prints E9: the reliable transport must keep
// every protocol's specification under every fault plan.
func TestFaultsExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("live lossy-network sweep")
	}
	rows, err := faultsData()
	if err != nil {
		t.Fatal(err)
	}
	printFaults(rows)
	for _, row := range rows {
		for _, c := range row.Cells {
			if c.Violations > 0 {
				t.Errorf("%s under %s: %d violations of %s", row.Protocol, c.Plan, c.Violations, row.Spec)
			}
		}
	}
}

// TestCrashesCmd drives the E11 matrix: the table must print, no cell
// may violate its specification, and every restart cell must have
// recovered every crash with nothing lost and a recovery latency.
func TestCrashesCmd(t *testing.T) {
	if testing.Short() {
		t.Skip("live crash sweep")
	}
	rows, err := crashesData()
	if err != nil {
		t.Fatal(err)
	}
	printCrashes(rows)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rows {
		for _, cell := range row.Cells {
			if cell.Violations > 0 {
				t.Fatalf("%s under %s: %d violations", row.Protocol, cell.Plan, cell.Violations)
			}
			if cell.Plan == "restart-p1p2" {
				if cell.Recoveries != cell.Crashes || cell.Crashes == 0 {
					t.Fatalf("%s: crashes/recoveries = %d/%d", row.Protocol, cell.Crashes, cell.Recoveries)
				}
				if cell.Undelivered != 0 {
					t.Fatalf("%s restart cell lost %d messages", row.Protocol, cell.Undelivered)
				}
				if cell.RecoveryMaxUS == 0 {
					t.Fatalf("%s: no recovery latency recorded", row.Protocol)
				}
			}
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"nope"}); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

// TestExitCodes pins the process-level contract: failing subcommands
// exit non-zero, succeeding ones exit zero. Each case re-execs the
// test binary as mobench itself.
func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	cases := []struct {
		name     string
		args     []string
		wantFail bool
	}{
		{"unknown-experiment", []string{"nope"}, true},
		{"bad-trace-format", []string{"trace", "-format", "xml"}, true},
		{"validate-wrong-format", []string{"trace", "-format", "ndjson", "-validate",
			"-o", filepath.Join(t.TempDir(), "t.ndjson")}, true},
		{"validate-on-stdout", []string{"trace", "-validate", "-o", "-"}, true},
		{"bad-flag", []string{"-nonsense"}, true},
		{"table1-succeeds", []string{"table1"}, false},
		{"trace-validate-succeeds", []string{"trace", "-proto", "causal-rst", "-validate",
			"-o", filepath.Join(t.TempDir(), "t.json")}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "MOBENCH_AS_BINARY=1")
			err := cmd.Run()
			if tc.wantFail && err == nil {
				t.Fatalf("mobench %v exited 0, want non-zero", tc.args)
			}
			if !tc.wantFail && err != nil {
				t.Fatalf("mobench %v exited non-zero: %v", tc.args, err)
			}
		})
	}
}

// TestTraceCmd drives the trace subcommand end to end on both harness
// backends and re-validates the emitted Chrome trace.
func TestTraceCmd(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		name := "deterministic"
		args := []string{"-proto", "causal-rst", "-validate"}
		if lossy {
			name = "lossy"
			args = append(args, "-lossy")
		}
		t.Run(name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "trace.json")
			if err := traceCmd(append(args, "-o", out)); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if err := obs.ValidateChromeTrace(data); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTraceCmdNDJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := traceCmd([]string{"-format", "ndjson", "-o", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("ndjson trace is empty")
	}
}

func TestTraceCmdRejectsBadFlags(t *testing.T) {
	if err := traceCmd([]string{"-format", "xml"}); err == nil {
		t.Fatal("bad format must fail")
	}
	if err := traceCmd([]string{"-proto", "nope", "-o", "-"}); err == nil {
		t.Fatal("unknown protocol must fail")
	}
}
