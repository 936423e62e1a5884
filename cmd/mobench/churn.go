// The churn subcommand: E16's membership-churn matrix — every catalog
// protocol plus the live §5 handoff protocol swept across membership
// operations {join, leave, evict, handoff} under topology-shaped
// network environments {clean, geo-lossy, asym-partition,
// crash-restart} on loopback TCP meshes with per-node WALs. Each cell
// validates the surviving members' user view byte-for-byte against the
// in-memory sim reference and, where the protocol carries one, against
// its forbidden-predicate specification; a cell failing
// conformance.ChurnCell.Err is a non-zero exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"msgorder/internal/conformance"
)

// protoList resolves a comma-separated -protos value into matrix
// inputs; "" means the registry catalog.
func protoList(list string) ([]conformance.NetProtocol, error) {
	if list == "" {
		return conformance.Protocols()
	}
	return conformance.Protocols(strings.Split(list, ",")...)
}

// churnCmd runs E16:
//
//	mobench churn          # print the full churn matrix table
//	mobench churn -smoke   # fifo × {join,evict} × clean (the CI gate)
func churnCmd(args []string) error {
	fs := flag.NewFlagSet("mobench churn", flag.ContinueOnError)
	msgs := fs.Int("msgs", 12, "lockstep workload length per cell")
	procs := fs.Int("procs", 3, "mesh size per cell")
	seed := fs.Int64("seed", 3, "workload seed")
	protos := fs.String("protos", "", "comma-separated protocol list (default: catalog + handoff)")
	ops := fs.String("ops", "", "comma-separated op sub-matrix (default: all)")
	envs := fs.String("envs", "", "comma-separated env sub-matrix (default: all)")
	smoke := fs.Bool("smoke", false, "run the fast gate: fifo x {join,evict} x clean")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := conformance.ChurnConfig{Procs: *procs, Msgs: *msgs, Seed: *seed}
	list := *protos
	if *ops != "" {
		cfg.Ops = strings.Split(*ops, ",")
	}
	if *envs != "" {
		cfg.Envs = strings.Split(*envs, ",")
	}
	if *smoke {
		list = "fifo"
		cfg.Ops = []string{"join", "evict"}
		cfg.Envs = []string{"clean"}
	}
	plist, err := protoList(list)
	if err == nil && list == "" {
		var h []conformance.NetProtocol
		h, err = conformance.Protocols("handoff")
		plist = append(plist, h...)
	}
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "mobench-churn-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.WALDir = dir
	cells, err := conformance.ChurnMatrix(cfg, plist)
	if err != nil {
		return err
	}
	fmt.Println("== E16: membership churn matrix — ops x environments, surviving views vs sim ==")
	fmt.Printf("%-12s %-8s %-15s %6s %6s %6s %8s %10s\n",
		"protocol", "op", "env", "match", "spec", "epoch", "msgs", "mesh(ms)")
	for _, c := range cells {
		spec := "ok"
		if c.SpecViolation {
			spec = "VIOL"
		}
		fmt.Printf("%-12s %-8s %-15s %6t %6s %6d %8d %10.1f\n",
			c.Protocol, c.Op, c.Env, c.Match, spec, c.Epoch, c.Msgs,
			float64(c.MeshElapsed.Microseconds())/1000)
	}
	fmt.Println("expected shape: every cell matches — joiners splice byte-identically after")
	fmt.Println("state transfer, evictions name exactly the silent process, and handoff (§5)")
	fmt.Println("migrates a member with no view change even under lossy or asymmetric links.")
	for _, c := range cells {
		if err := c.Err(); err != nil {
			return err
		}
	}
	return nil
}
