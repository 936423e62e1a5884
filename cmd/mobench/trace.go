// The trace and bench subcommands: E10's instrumented run exported as
// Chrome trace-event JSON (load in Perfetto / chrome://tracing), and the
// machine-readable benchmark snapshots checked in at the repo root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"msgorder/internal/conformance"
	"msgorder/internal/obs"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/registry"
	"msgorder/internal/transport"
)

// printJSON renders v as indented JSON followed by a newline.
func printJSON(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// makerByName resolves a protocol from the shared registry.
func makerByName(name string) (protocol.Maker, error) {
	e, ok := registry.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q (try one of the 'protocols' rows)", name)
	}
	return e.Maker, nil
}

// traceCmd runs one instrumented conformance workload and exports the
// collected trace:
//
//	mobench trace -proto causal-rst -o trace.json -validate
//
// The chrome format opens directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing; one track per process plus a harness track for
// explorer/transport/stall records. -lossy reruns the workload on the
// live harness over a drop+dup fault plan so the trace also shows
// retransmissions and stall-detector verdicts.
func traceCmd(args []string) error {
	fs := flag.NewFlagSet("mobench trace", flag.ContinueOnError)
	proto := fs.String("proto", "causal-rst", "protocol under test (see 'mobench protocols')")
	out := fs.String("o", "trace.json", "output path ('-' for stdout)")
	format := fs.String("format", "chrome", "trace format: chrome | ndjson")
	validate := fs.Bool("validate", false, "re-read the chrome trace and check its causal invariants")
	seed := fs.Int64("seed", 1, "workload seed")
	procs := fs.Int("procs", 3, "process count")
	msgs := fs.Int("msgs", 8, "initial message count")
	lossy := fs.Bool("lossy", false, "run on the live lossy-network harness (adds transport/stall records)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "chrome" && *format != "ndjson" {
		return fmt.Errorf("unknown trace format %q", *format)
	}
	maker, err := makerByName(*proto)
	if err != nil {
		return err
	}

	col := obs.NewCollector()
	reg := obs.NewRegistry()
	cfg := conformance.Config{
		Maker:       maker,
		Procs:       *procs,
		InitialMsgs: *msgs,
		ChainBudget: *msgs,
		ChainProb:   0.7,
		Seed:        *seed,
		Tracer:      col,
		Metrics:     reg,
	}
	if *lossy {
		cfg.Faults = &transport.FaultPlan{DropRate: 0.2, DupRate: 0.1}
	}
	res, err := conformance.Run(cfg)
	if err != nil {
		return err
	}

	w := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "chrome":
		if err := obs.WriteChromeTrace(w, col.Records()); err != nil {
			return err
		}
	case "ndjson":
		if err := obs.WriteNDJSON(w, col.Records()); err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "trace: proto=%s procs=%d steps=%d undelivered=%d records=%d -> %s (%s)\n",
		*proto, *procs, res.Steps, len(res.Undelivered), col.Len(), *out, *format)
	snap := reg.Snapshot()
	for _, name := range snap.Names() {
		if v, ok := snap.Counters[name]; ok {
			fmt.Fprintf(os.Stderr, "  %-32s %d\n", name, v)
		}
		if v, ok := snap.Gauges[name]; ok {
			fmt.Fprintf(os.Stderr, "  %-32s %d (gauge)\n", name, v)
		}
		if h, ok := snap.Histograms[name]; ok {
			fmt.Fprintf(os.Stderr, "  %-32s n=%d mean=%.1f max=%d\n", name, h.Count, h.Mean(), h.Max)
		}
	}

	if *validate {
		if *format != "chrome" {
			return fmt.Errorf("-validate requires -format chrome")
		}
		if *out == "-" {
			return fmt.Errorf("-validate requires -o to name a file")
		}
		data, err := os.ReadFile(*out)
		if err != nil {
			return err
		}
		if err := obs.ValidateChromeTrace(data); err != nil {
			return fmt.Errorf("trace validation failed: %w", err)
		}
		fmt.Fprintln(os.Stderr, "trace: chrome trace validated (monotone tracks, every deliver after its send)")
	}
	return nil
}

// benchFile is the envelope written for each BENCH_*.json snapshot.
type benchFile struct {
	Experiment  string `json:"experiment"`
	GeneratedAt string `json:"generated_at"`
	Rows        any    `json:"rows"`
}

// writeBench writes one BENCH_*.json snapshot into outdir, creating
// the directory if missing.
func writeBench(outdir, name, experiment string, rows any) error {
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outdir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := printJSON(f, benchFile{
		Experiment:  experiment,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Rows:        rows,
	}); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// benchCmd regenerates the machine-readable benchmark snapshots at the
// repo root (or -outdir): BENCH_explore.json, BENCH_faults.json,
// BENCH_crashes.json, BENCH_net.json, BENCH_obs.json, BENCH_churn.json
// and BENCH_mux.json.
func benchCmd(args []string) error {
	fs := flag.NewFlagSet("mobench bench", flag.ContinueOnError)
	outdir := fs.String("outdir", ".", "directory to write BENCH_*.json into")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exploreRows, err := exploreData([]string{"fifo", "causal-b2"})
	if err != nil {
		return err
	}
	if err := writeBench(*outdir, "BENCH_explore.json", "T3b exhaustive schedule exploration", exploreRows); err != nil {
		return err
	}
	faultsRows, err := faultsData()
	if err != nil {
		return err
	}
	if err := writeBench(*outdir, "BENCH_faults.json", "E9 lossy-network fault matrix", faultsRows); err != nil {
		return err
	}
	crashesRows, err := crashesData()
	if err != nil {
		return err
	}
	if err := writeBench(*outdir, "BENCH_crashes.json", "E11 crash/recovery matrix", crashesRows); err != nil {
		return err
	}
	netRows, err := netData(16, 5)
	if err != nil {
		return err
	}
	if err := writeBench(*outdir, "BENCH_net.json", "E12 cross-runtime net matrix", netRows); err != nil {
		return err
	}
	if err := benchObs(*outdir); err != nil {
		return err
	}
	if err := benchChurn(*outdir); err != nil {
		return err
	}
	return benchMux(*outdir)
}
