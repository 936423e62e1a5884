// The mux subcommand: E17's multi-tenant channel matrix — every
// catalog protocol becomes one channel on a single shared loopback TCP
// mesh, all channels' lockstep workloads interleave round-robin, and
// each channel's user view is validated byte-for-byte against its
// standalone in-memory sim run under {clean, lossy, crash-restart}
// disturbances; the tagless channel must pay zero overhead even though
// tagged channels share its connections. A cell failing
// conformance.MuxCell.Err is a non-zero exit.
package main

import (
	"flag"
	"fmt"
	"os"

	"msgorder/internal/conformance"
)

// muxCmd runs E17:
//
//	mobench mux            # print the matrix table
//	mobench mux -smoke     # 3 channels with distinct specs (the CI gate)
func muxCmd(args []string) error {
	fs := flag.NewFlagSet("mobench mux", flag.ContinueOnError)
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
	plist, err := protoList(list)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "mobench-mux-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cells, err := conformance.MuxMatrix(conformance.NetMatrixConfig{
		Procs: *procs, Msgs: *msgs, Seed: *seed, WALDir: dir,
	}, plist)
	if err != nil {
		return err
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
	for _, c := range cells {
		if err := c.Err(); err != nil {
			return err
		}
	}
	return nil
}
