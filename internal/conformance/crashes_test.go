package conformance

import (
	"fmt"
	"testing"
	"time"

	"msgorder/internal/check"
	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/protocols/causal"
	"msgorder/internal/protocols/fifo"
)

// TestCrashRestartConformance: a crash-restart plan must not cost
// completeness or ordering — every message is delivered and the FIFO
// specification holds on every seed.
func TestCrashRestartConformance(t *testing.T) {
	cfg := Config{Maker: fifo.Maker, Procs: 3, InitialMsgs: 50}
	plan := crash.RestartStagger([]event.ProcID{1, 2}, 15, 40, 5*time.Millisecond)
	plan.SnapshotEvery = 8
	cfg.Crashes = &plan
	cfg.Seed = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.View.IsComplete() {
		t.Fatal("crash-restart run incomplete")
	}
	if m, bad := check.FindViolation(res.View, pred(t, "fifo")); bad {
		t.Fatalf("FIFO violated across restarts: %s", m.String(pred(t, "fifo")))
	}
	if res.Stats.Crashes != 2 || res.Stats.Recoveries != 2 {
		t.Fatalf("crashes/recoveries = %d/%d, want 2/2", res.Stats.Crashes, res.Stats.Recoveries)
	}
}

// TestCrashMatrixSweep smoke-tests the matrix driver: a restart plan
// must leave nothing undelivered, a stop plan may lose only the dead
// process's mail, and neither may violate causal ordering on the
// delivered prefix. testdata/crashes.golden records the verdicts; the
// stop cell's undelivered count varies run to run and stays out.
func TestCrashMatrixSweep(t *testing.T) {
	cfg := Config{Maker: causal.RSTMaker, Procs: 3, InitialMsgs: 30}
	restartPlan := crash.RestartStagger([]event.ProcID{1}, 20, 0, 5*time.Millisecond)
	restartPlan.SnapshotEvery = 8
	names := []string{"restart-p1", "stop-p2"}
	plans := []crash.Plan{restartPlan, crash.StopOne(2, 25)}
	cells, err := CrashMatrix(cfg, plans, 2, pred(t, "causal-b2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	var lines []string
	for i, cell := range cells {
		if cell.Violations != 0 {
			t.Errorf("%s: %d violations on the delivered prefix", names[i], cell.Violations)
		}
		lines = append(lines, fmt.Sprintf("causal-rst/%s runs=%d violations=%d crashes=%d recoveries=%d",
			names[i], cell.Runs, cell.Violations, cell.Stats.Crashes, cell.Stats.Recoveries))
	}
	checkGolden(t, "crashes", lines)
	restart, stop := cells[0], cells[1]
	if restart.Undelivered != 0 {
		t.Fatalf("restart cell lost %d messages", restart.Undelivered)
	}
	if restart.Stats.Recoveries != 2 {
		t.Fatalf("restart cell recoveries = %d, want 2 (one per seed)", restart.Stats.Recoveries)
	}
	if stop.Stats.Crashes != 2 || stop.Stats.Recoveries != 0 {
		t.Fatalf("stop cell crashes/recoveries = %d/%d, want 2/0", stop.Stats.Crashes, stop.Stats.Recoveries)
	}
}
