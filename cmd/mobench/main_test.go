package main

import (
	"encoding/json"
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

func TestTable1(t *testing.T) {
	if err := table1(); err != nil {
		t.Fatal(err)
	}
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

func TestExploreExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("schedule enumeration")
	}
	if err := explore(false); err != nil {
		t.Fatal(err)
	}
}

func TestFaultsExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("live lossy-network sweep")
	}
	if err := faults(false); err != nil {
		t.Fatal(err)
	}
}

// TestCrashesCmd drives the E11 matrix end to end: the table must
// print, and -json must write a parseable BENCH_crashes.json with a
// restart cell that actually recovered.
func TestCrashesCmd(t *testing.T) {
	if testing.Short() {
		t.Skip("live crash sweep")
	}
	if err := crashesCmd(nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := crashesCmd([]string{"-json", "-outdir", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_crashes.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Experiment string       `json:"experiment"`
		Rows       []crashesRow `json:"rows"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Rows) == 0 {
		t.Fatal("no rows in BENCH_crashes.json")
	}
	for _, row := range bf.Rows {
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

// TestBenchCmd writes the BENCH_*.json snapshots into a temp dir and
// checks they parse.
func TestBenchCmd(t *testing.T) {
	if testing.Short() {
		t.Skip("schedule enumeration + lossy sweep")
	}
	dir := t.TempDir()
	if err := benchCmd([]string{"-outdir", dir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"BENCH_explore.json", "BENCH_faults.json", "BENCH_crashes.json",
		"BENCH_net.json", "BENCH_churn.json", "BENCH_mux.json",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var bf benchFile
		if err := json.Unmarshal(data, &bf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bf.Experiment == "" || bf.Rows == nil {
			t.Fatalf("%s: incomplete envelope %+v", name, bf)
		}
	}
}

// TestWriteBenchCreatesMissingOutdir is the regression test for the
// -outdir fix: snapshots must land in a directory that does not exist
// yet instead of failing at os.Create.
func TestWriteBenchCreatesMissingOutdir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "deeper")
	if err := writeBench(dir, "BENCH_test.json", "regression", []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_test.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.Experiment != "regression" || bf.Rows == nil {
		t.Fatalf("envelope = %+v", bf)
	}
}
