// The mux subcommand: E17's multi-tenant channel matrix — every
// catalog protocol becomes one channel on a single shared loopback TCP
// mesh, all channels' lockstep workloads interleave round-robin, and
// each channel's user view is validated byte-for-byte against its
// standalone in-memory sim run under {clean, lossy, crash-restart}
// disturbances; the tagless channel must pay zero overhead even though
// tagged channels share its connections. -json writes BENCH_mux.json,
// then re-reads and re-validates the file so a truncated or diverging
// snapshot is an error, not an artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"msgorder/internal/conformance"
	"msgorder/internal/protocols/registry"
)

// muxProtoList resolves a comma-separated protocol list ("" = the full
// catalog) into mux-matrix channel inputs.
func muxProtoList(list string) ([]conformance.NetProtocol, error) {
	var names []string
	if list == "" {
		for _, e := range registry.Catalog() {
			names = append(names, e.Name)
		}
	} else {
		names = strings.Split(list, ",")
	}
	var out []conformance.NetProtocol
	for _, name := range names {
		e, ok := registry.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown protocol %q (see 'mobench protocols')", name)
		}
		out = append(out, conformance.NetProtocol{Name: e.Name, Maker: e.Maker, Colors: e.Colors})
	}
	return out, nil
}

// muxMatrixData runs the mux matrix in a scratch WAL directory.
func muxMatrixData(protos []conformance.NetProtocol, cfg conformance.NetMatrixConfig) ([]conformance.MuxCell, error) {
	dir, err := os.MkdirTemp("", "mobench-mux-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.WALDir = dir
	return conformance.MuxMatrix(cfg, protos)
}

// muxCellBad returns a non-empty reason when a matrix cell fails its
// acceptance criteria; both the live run and the snapshot re-read
// validate through it.
func muxCellBad(c conformance.MuxCell) string {
	switch {
	case !c.Match:
		return "multiplexed view diverges from the standalone sim reference"
	case c.UnknownDrops != 0:
		return fmt.Sprintf("%d envelopes dropped as unknown under symmetric opens", c.UnknownDrops)
	case c.Protocol == "tagless" && (c.Stats.UserTagBytes != 0 || c.Stats.ControlMessages != 0):
		return fmt.Sprintf("tagless channel paid overhead: tags=%d ctrl=%d",
			c.Stats.UserTagBytes, c.Stats.ControlMessages)
	case c.Cell == "lossy" && c.Mesh.FaultsInjected == 0:
		return "lossy cell degenerated to clean (no faults injected)"
	case c.Cell == "crash-restart" && (c.Stats.Crashes != 1 || c.Stats.Recoveries != 1):
		return fmt.Sprintf("crashes/recoveries = %d/%d, want 1/1", c.Stats.Crashes, c.Stats.Recoveries)
	}
	return ""
}

// validateBenchMux re-reads a written BENCH_mux.json and fails unless
// it parses and every matrix cell passes — the mux-smoke gate's whole
// check is this function's exit code.
func validateBenchMux(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("re-reading %s: %w", path, err)
	}
	var f struct {
		Experiment string                `json:"experiment"`
		Rows       []conformance.MuxCell `json:"rows"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return fmt.Errorf("%s is not valid JSON: %w", path, err)
	}
	if f.Experiment == "" || len(f.Rows) == 0 {
		return fmt.Errorf("%s has no rows", path)
	}
	for _, c := range f.Rows {
		if bad := muxCellBad(c); bad != "" {
			return fmt.Errorf("%s: %s/%s: %s", path, c.Protocol, c.Cell, bad)
		}
	}
	return nil
}

// benchMux writes and re-validates the BENCH_mux.json snapshot for
// 'mobench bench' (the full catalog matrix).
func benchMux(outdir string) error {
	return muxCmd([]string{"-json", "-outdir", outdir})
}

// muxCmd runs E17:
//
//	mobench mux            # print the matrix table
//	mobench mux -json      # write + re-validate BENCH_mux.json
//	mobench mux -smoke     # 3 channels with distinct specs (the CI gate)
func muxCmd(args []string) error {
	fs := flag.NewFlagSet("mobench mux", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "write the BENCH_mux.json snapshot instead of a table")
	outdir := fs.String("outdir", ".", "directory to write BENCH_mux.json into")
	msgs := fs.Int("msgs", 16, "lockstep workload length per channel")
	procs := fs.Int("procs", 3, "mesh size")
	seed := fs.Int64("seed", 5, "workload seed")
	protos := fs.String("protos", "", "comma-separated channel protocol list (default: full catalog)")
	smoke := fs.Bool("smoke", false, "run the fast gate: tagless/fifo/causal-rst channels")
	if err := fs.Parse(args); err != nil {
		return err
	}
	list := *protos
	if *smoke {
		list = "tagless,fifo,causal-rst"
		*msgs = 8
	}
	plist, err := muxProtoList(list)
	if err != nil {
		return err
	}
	cells, err := muxMatrixData(plist, conformance.NetMatrixConfig{
		Procs: *procs, Msgs: *msgs, Seed: *seed,
	})
	if err != nil {
		return err
	}
	for _, c := range cells {
		if bad := muxCellBad(c); bad != "" {
			return fmt.Errorf("%s/%s: %s", c.Protocol, c.Cell, bad)
		}
	}
	if *jsonOut {
		if err := writeBench(*outdir, "BENCH_mux.json", "E17 multiplexed channels: conformance matrix", cells); err != nil {
			return err
		}
		return validateBenchMux(filepath.Join(*outdir, "BENCH_mux.json"))
	}
	fmt.Println("== E17: multiplexed channels — per-channel views vs standalone, one shared mesh ==")
	fmt.Printf("%-12s %-15s %6s %8s %6s %8s %12s %10s\n",
		"channel", "cell", "match", "tagB", "ctrl", "retrans", "unknownDrop", "mux(ms)")
	for _, c := range cells {
		fmt.Printf("%-12s %-15s %6t %8d %6d %8d %12d %10.1f\n",
			c.Protocol, c.Cell, c.Match, c.Stats.UserTagBytes, c.Stats.ControlMessages,
			c.Transport.Retransmits, c.UnknownDrops,
			float64(c.MuxElapsed.Microseconds())/1000)
	}
	fmt.Println("expected shape: every cell matches — per-channel protocol instances make")
	fmt.Println("multiplexing invisible in the view; the tagless channel's tagB/ctrl stay 0")
	fmt.Println("even though tagged channels share its connections.")
	return nil
}
