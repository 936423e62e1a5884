package conformance

import (
	"bytes"
	"fmt"
	"testing"

	"msgorder/internal/catalog"
	"msgorder/internal/check"
	"msgorder/internal/event"
	"msgorder/internal/predicate"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/causal"
	"msgorder/internal/protocols/fifo"
	"msgorder/internal/protocols/flush"
	"msgorder/internal/protocols/kweaker"
	"msgorder/internal/protocols/sync"
	"msgorder/internal/protocols/tagless"
	"msgorder/internal/trace"
	"msgorder/internal/transport"
)

// lossyCase pairs a catalog protocol with the specification it must
// keep satisfying on a lossy network, and the 50-message workload that
// exercises it.
type lossyCase struct {
	name string
	cfg  Config
	spec *predicate.Predicate // nil: completeness (X_async) only
}

// lossyCatalog builds the full protocol catalog with 50-user-message
// workloads (broadcast configs invoke fewer requests, each fanning out
// to the other processes).
func lossyCatalog(t *testing.T) []lossyCase {
	t.Helper()
	unicast := func(maker protocol.Maker, procs int) Config {
		return Config{Maker: maker, Procs: procs, InitialMsgs: 50}
	}
	flushCfg := unicast(flush.Maker, 3)
	flushCfg.Colors = []event.Color{
		event.ColorNone, event.ColorNone, event.ColorNone, event.ColorRed,
	}
	bssCfg := unicast(causal.BSSMaker, 3)
	bssCfg.Broadcast = true
	bssCfg.InitialMsgs = 25 // x2 destinations = 50 user messages
	return []lossyCase{
		{"tagless", unicast(tagless.Maker, 3), nil},
		{"fifo", unicast(fifo.Maker, 3), pred(t, "fifo")},
		{"causal-rst", unicast(causal.RSTMaker, 3), pred(t, "causal-b2")},
		{"causal-ses", unicast(causal.SESMaker, 3), pred(t, "causal-b2")},
		{"causal-bss", bssCfg, pred(t, "causal-b2")},
		{"sync", unicast(sync.Maker, 3), pred(t, "sync-2")},
		{"sync-ra", unicast(sync.RAMaker, 3), pred(t, "sync-2")},
		{"flush", flushCfg, pred(t, "local-forward-flush")},
		{"kweaker-0", unicast(kweaker.Maker(0), 2), catalog.KWeakerChannel(0)},
		{"kweaker-1", unicast(kweaker.Maker(1), 2), catalog.KWeakerChannel(1)},
		{"kweaker-2", unicast(kweaker.Maker(2), 2), catalog.KWeakerChannel(2)},
	}
}

// TestCatalogSurvivesLossyNetwork is the headline acceptance check:
// with 20% drops and 10% duplicates, every protocol in the catalog
// completes a 50-message run with zero specification violations, and
// the transport visibly worked for it (retransmits, dups dropped).
func TestCatalogSurvivesLossyNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog sweep: skipped in -short mode")
	}
	for _, c := range lossyCatalog(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := c.cfg
			cfg.Seed = 1
			cfg.Faults = &transport.FaultPlan{DropRate: 0.2, DupRate: 0.1}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.View.IsComplete() {
				t.Fatal("run incomplete despite reliable transport")
			}
			if got := res.Stats.UserMessages; got != 50 {
				t.Fatalf("user messages = %d, want 50", got)
			}
			if c.spec != nil {
				if m, bad := check.FindViolation(res.View, c.spec); bad {
					t.Fatalf("specification violated under loss: %s", m.String(c.spec))
				}
			}
			if res.Stats.Retransmits == 0 {
				t.Fatal("expected nonzero retransmits at 20% drop rate")
			}
			if res.Stats.DupsDropped == 0 {
				t.Fatal("expected nonzero dups dropped at 10% dup rate")
			}
		})
	}
}

// TestSeededLossPerClass exercises one protocol per capability class
// with chained workloads (delivery-triggered follow-ups) over several
// seeds — the interaction of causal chains with retransmission delays.
func TestSeededLossPerClass(t *testing.T) {
	classes := []struct {
		name  string
		maker protocol.Maker
		spec  string
	}{
		{"tagless", tagless.Maker, ""},               // tagless class
		{"causal-rst", causal.RSTMaker, "causal-b2"}, // tagged class
		{"sync", sync.Maker, "sync-2"},               // general class
	}
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	for _, c := range classes {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= int64(seeds); seed++ {
				cfg := chainCfg(c.maker)
				cfg.Seed = seed
				cfg.Faults = &transport.FaultPlan{DropRate: 0.25, DupRate: 0.1, DelayJitter: 0.1}
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.View.IsComplete() {
					t.Fatalf("seed %d: incomplete", seed)
				}
				if c.spec != "" {
					if m, bad := check.FindViolation(res.View, pred(t, c.spec)); bad {
						t.Fatalf("seed %d: violated %s: %s", seed, c.spec, m.String(pred(t, c.spec)))
					}
				}
			}
		})
	}
}

// TestFaultMatrixSweep smoke-tests the matrix driver: a fault-free
// cell must report zero transport work, a lossy cell nonzero, and the
// FIFO protocol must stay violation-free in both, as
// testdata/faults.golden records.
func TestFaultMatrixSweep(t *testing.T) {
	cfg := Config{Maker: fifo.Maker, Procs: 2, InitialMsgs: 15}
	names := []string{"fault-free", "drop25+dup10"}
	plans := []transport.FaultPlan{
		{}, // fault-free baseline (still on the live harness)
		{DropRate: 0.25, DupRate: 0.1},
	}
	cells, err := FaultMatrix(cfg, plans, 2, pred(t, "fifo"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	var lines []string
	for i, cell := range cells {
		if cell.Violations != 0 {
			t.Errorf("%s: %d violations", names[i], cell.Violations)
		}
		lines = append(lines, fmt.Sprintf("fifo/%s runs=%d violations=%d", names[i], cell.Runs, cell.Violations))
	}
	checkGolden(t, "faults", lines)
	// The fault-free cell may see the odd spurious retransmit under a
	// slow scheduler, but no faults can have been injected.
	if cells[0].Stats.FaultsInjected != 0 {
		t.Fatalf("fault-free cell reports injected faults: %+v", cells[0].Stats)
	}
	if cells[1].Stats.Retransmits == 0 || cells[1].Stats.DupsDropped == 0 {
		t.Fatalf("lossy cell reports no transport work: %+v", cells[1].Stats)
	}
}

// TestPartitionedConformanceRun drives a workload across a healing
// partition: liveness must survive the cut.
func TestPartitionedConformanceRun(t *testing.T) {
	cfg := Config{Maker: causal.RSTMaker, Procs: 3, InitialMsgs: 20, Seed: 2}
	cfg.Faults = &transport.FaultPlan{
		Partitions: []transport.Partition{{
			A: []event.ProcID{0}, B: []event.ProcID{1, 2}, Heal: 12,
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.View.IsComplete() {
		t.Fatal("incomplete across a healed partition")
	}
	if m, bad := check.FindViolation(res.View, pred(t, "causal-b2")); bad {
		t.Fatalf("causal ordering violated: %s", m.String(pred(t, "causal-b2")))
	}
	if res.Stats.FaultsInjected == 0 {
		t.Fatal("partition drops must be counted as injected faults")
	}
}

// TestFaultFreeRunsAreDeterministic: without Faults the deterministic
// path is untouched — identical configs must yield byte-identical
// encoded views and zero transport counters.
func TestFaultFreeRunsAreDeterministic(t *testing.T) {
	cfg := chainCfg(causal.RSTMaker)
	cfg.Seed = 9
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := trace.EncodeUserView(a.View)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := trace.EncodeUserView(b.View)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatal("fault-free runs with the same seed must be byte-identical")
	}
	if a.Stats.Retransmits != 0 || a.Stats.DupsDropped != 0 || a.Stats.FaultsInjected != 0 {
		t.Fatalf("deterministic run reports transport work: %+v", a.Stats)
	}
}
