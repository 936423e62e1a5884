// The trace subcommand: E10's instrumented run exported as Chrome
// trace-event JSON (load in Perfetto / chrome://tracing) or NDJSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

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
