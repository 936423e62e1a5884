// The crashes subcommand: E11's crash/recovery matrix — the protocol
// catalog swept across seeded crash-restart and crash-stop plans on the
// live harness, with durable-state recovery latency per cell.
package main

import (
	"flag"
	"fmt"
	"time"

	"msgorder/internal/catalog"
	"msgorder/internal/conformance"
	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/obs"
	"msgorder/internal/predicate"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/causal"
	"msgorder/internal/protocols/fifo"
	"msgorder/internal/protocols/flush"
	"msgorder/internal/protocols/kweaker"
	syncproto "msgorder/internal/protocols/sync"
	"msgorder/internal/protocols/tagless"
)

// crashPlans returns the named crash plans of the E11 matrix. P0 is the
// sync protocols' coordinator, so crashes target P1/P2 only: the matrix
// measures worker recovery, not coordinator fail-over.
func crashPlans() []struct {
	name string
	plan crash.Plan
} {
	restart := crash.RestartStagger([]event.ProcID{1, 2}, 15, 40, 5*time.Millisecond)
	restart.SnapshotEvery = 8
	replay := crash.RestartStagger([]event.ProcID{1}, 25, 0, 5*time.Millisecond)
	return []struct {
		name string
		plan crash.Plan
	}{
		{"restart-p1p2", restart},         // both workers crash once, checkpointed WAL
		{"restart-replay", replay},        // one crash, no checkpoints: full journal replay
		{"stop-p2", crash.StopOne(2, 25)}, // P2 dies forever mid-run
	}
}

// crashCell is one (protocol, crash plan) cell, summed over seeds.
type crashCell struct {
	Plan           string
	Crashes        int
	Recoveries     int
	Replayed       int
	Retransmits    int
	Undelivered    int
	Violations     int
	RecoveryMeanUS float64
	RecoveryMaxUS  int64
}

// crashesRow is one protocol's row of the crash matrix.
type crashesRow struct {
	Protocol string
	Spec     string
	Cells    []crashCell
}

// crashesData sweeps the full protocol catalog across the crash plans.
// Each (protocol, plan) cell gets its own metrics registry so the
// recovery-latency histogram is per cell, not smeared across the matrix.
func crashesData() ([]crashesRow, error) {
	cases := []struct {
		name  string
		maker protocol.Maker
		spec  string
		pred  *predicate.Predicate
	}{
		{"tagless", tagless.Maker, "", nil},
		{"fifo", fifo.Maker, "fifo", nil},
		{"kweaker-1", kweaker.Maker(1), "kweaker-1-channel", catalog.KWeakerChannel(1)},
		{"flush", flush.Maker, "local-forward-flush", nil},
		{"causal-rst", causal.RSTMaker, "causal-b2", nil},
		{"causal-ses", causal.SESMaker, "causal-b2", nil},
		{"sync", syncproto.Maker, "sync-2", nil},
		{"sync-ra", syncproto.RAMaker, "sync-2", nil},
	}
	const seeds = 2
	var rows []crashesRow
	for _, c := range cases {
		cfg := conformance.Config{
			Maker:       c.maker,
			Procs:       3,
			InitialMsgs: 50,
		}
		if c.name == "flush" {
			cfg.Colors = []event.Color{
				event.ColorNone, event.ColorNone, event.ColorNone, event.ColorRed,
			}
		}
		pred := c.pred
		specName := "(liveness)"
		if c.spec != "" {
			specName = c.spec
			if pred == nil {
				e, ok := catalog.ByName(c.spec)
				if !ok {
					return nil, fmt.Errorf("%s: unknown spec %q", c.name, c.spec)
				}
				pred = e.Pred
			}
		}
		row := crashesRow{Protocol: c.name, Spec: specName}
		for _, p := range crashPlans() {
			reg := obs.NewRegistry()
			cells, err := conformance.CrashMatrix(cfg.WithMetrics(reg),
				[]crash.Plan{p.plan}, seeds, pred)
			if err != nil {
				return nil, fmt.Errorf("%s under %s: %w", c.name, p.name, err)
			}
			cell := cells[0]
			out := crashCell{
				Plan:        p.name,
				Crashes:     cell.Stats.Crashes,
				Recoveries:  cell.Stats.Recoveries,
				Replayed:    cell.Stats.ReplayedEvents,
				Retransmits: cell.Stats.Retransmits,
				Undelivered: cell.Undelivered,
				Violations:  cell.Violations,
			}
			if h, ok := reg.Snapshot().Histograms["crash.recovery.latency.us"]; ok {
				out.RecoveryMeanUS = h.Mean()
				out.RecoveryMaxUS = h.Max
			}
			row.Cells = append(row.Cells, out)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// crashesCmd runs the E11 crash/recovery matrix and prints its table:
//
//	mobench crashes
func crashesCmd(args []string) error {
	if err := flag.NewFlagSet("mobench crashes", flag.ContinueOnError).Parse(args); err != nil {
		return err
	}
	rows, err := crashesData()
	if err != nil {
		return err
	}
	printCrashes(rows)
	return nil
}

// printCrashes renders the E11 table.
func printCrashes(rows []crashesRow) {
	fmt.Println("== E11: crash/recovery matrix — live harness with durable protocol state ==")
	fmt.Println("cell: crashes/recoveries, replayed WAL entries, mean recovery latency; 'lost' =")
	fmt.Println("undelivered messages (legal only under crash-stop), 'viol' flags spec violations")
	fmt.Printf("%-12s", "protocol")
	plans := crashPlans()
	for _, p := range plans {
		fmt.Printf(" %-26s", p.name)
	}
	fmt.Println(" spec")
	for _, row := range rows {
		fmt.Printf("%-12s", row.Protocol)
		for _, cell := range row.Cells {
			s := fmt.Sprintf("%d/%d r%d %s", cell.Crashes, cell.Recoveries, cell.Replayed,
				(time.Duration(cell.RecoveryMeanUS) * time.Microsecond).Round(10*time.Microsecond))
			if cell.Undelivered > 0 {
				s += fmt.Sprintf(" lost:%d", cell.Undelivered)
			}
			if cell.Violations > 0 {
				s += fmt.Sprintf(" viol:%d", cell.Violations)
			}
			fmt.Printf(" %-26s", s)
		}
		fmt.Printf(" %s\n", row.Spec)
	}
	fmt.Println("expected shape: restart cells deliver everything (no 'lost') and stay")
	fmt.Println("violation-free — recovery replays the journal back to the pre-crash state.")
	fmt.Println("stop cells lose the dead process's mail for the asynchronous protocols; the")
	fmt.Println("logically synchronous ones stall their global order behind the dead")
	fmt.Println("participant (fail-over is out of scope), losing nearly everything. Every")
	fmt.Println("delivered prefix still satisfies its specification.")
}
