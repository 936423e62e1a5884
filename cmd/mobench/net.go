// The net subcommand: E12's cross-runtime matrix — every catalog
// protocol's lockstep workload timed on the in-memory sim and on a
// 3-process loopback TCP mesh (clean / lossy / crash-restart cells),
// asserting the user views match byte for byte. -smoke upgrades the
// mesh side to real OS processes: it spawns 3 mod daemons, drives the
// causal workload over their client sockets, and diffs the reassembled
// view against the sim reference, exiting non-zero on any divergence.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"msgorder/internal/conformance"
	"msgorder/internal/event"
	"msgorder/internal/modrpc"
	"msgorder/internal/protocols/registry"
	"msgorder/internal/userview"
)

// netCellRow is one (protocol, disturbance) cell of the E12 table.
type netCellRow struct {
	Cell        string  `json:"cell"`
	Match       bool    `json:"view_match"`
	MeshUS      int64   `json:"mesh_elapsed_us"`
	PerMsgUS    float64 `json:"per_msg_us"`
	MsgsPerSec  float64 `json:"msgs_per_sec"`
	Retransmits int     `json:"retransmits"`
	IdleSkips   int     `json:"idle_skips"`
	FramesOut   int     `json:"frames_out"`
	BytesOut    int     `json:"bytes_out"`
	Faults      int     `json:"faults_injected"`
	Crashes     int     `json:"crashes"`
	Recoveries  int     `json:"recoveries"`
}

// netRow is one protocol's row: the sim baseline plus the mesh cells.
type netRow struct {
	Protocol string       `json:"protocol"`
	SimUS    int64        `json:"sim_elapsed_us"`
	Msgs     int          `json:"msgs"`
	Cells    []netCellRow `json:"cells"`
}

// netData runs the cross-runtime matrix and folds it into rows.
func netData(msgs int, seed int64) ([]netRow, error) {
	var protos []conformance.NetProtocol
	for _, e := range registry.Catalog() {
		protos = append(protos, conformance.NetProtocol{Name: e.Name, Maker: e.Maker, Colors: e.Colors})
	}
	walDir, err := os.MkdirTemp("", "mobench-net-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	cells, err := conformance.NetMatrix(conformance.NetMatrixConfig{
		Procs: 3, Msgs: msgs, Seed: seed, WALDir: walDir,
	}, protos)
	if err != nil {
		return nil, err
	}
	byProto := map[string]*netRow{}
	var rows []*netRow
	for _, c := range cells {
		row := byProto[c.Protocol]
		if row == nil {
			row = &netRow{Protocol: c.Protocol, SimUS: c.SimElapsed.Microseconds(), Msgs: msgs}
			byProto[c.Protocol] = row
			rows = append(rows, row)
		}
		meshUS := c.MeshElapsed.Microseconds()
		out := netCellRow{
			Cell:        c.Cell,
			Match:       c.Match,
			MeshUS:      meshUS,
			PerMsgUS:    float64(meshUS) / float64(msgs),
			Retransmits: c.Transport.Retransmits,
			IdleSkips:   c.Transport.IdleSkips,
			FramesOut:   c.Mesh.FramesOut,
			BytesOut:    c.Mesh.BytesOut,
			Faults:      c.Mesh.FaultsInjected,
			Crashes:     c.Stats.Crashes,
			Recoveries:  c.Stats.Recoveries,
		}
		if meshUS > 0 {
			out.MsgsPerSec = float64(msgs) / (float64(meshUS) / 1e6)
		}
		row.Cells = append(row.Cells, out)
	}
	final := make([]netRow, len(rows))
	for i, r := range rows {
		final[i] = *r
	}
	return final, nil
}

// netCmd runs E12:
//
//	mobench net                    # print the cross-runtime table
//	mobench net -json              # write BENCH_net.json into -outdir
//	mobench net -smoke -modbin M   # 3 real mod processes vs sim, diff views
func netCmd(args []string) error {
	fs := flag.NewFlagSet("mobench net", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "write the BENCH_net.json snapshot instead of a table")
	outdir := fs.String("outdir", ".", "directory to write BENCH_net.json into")
	msgs := fs.Int("msgs", 16, "lockstep workload length per cell")
	seed := fs.Int64("seed", 5, "workload seed")
	smoke := fs.Bool("smoke", false, "spawn real mod OS processes and diff their view against the sim")
	modbin := fs.String("modbin", "", "path to the mod binary (-smoke)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *smoke {
		if *modbin == "" {
			return fmt.Errorf("-smoke requires -modbin (a built mod binary)")
		}
		return netSmoke(*modbin, *msgs, *seed)
	}
	rows, err := netData(*msgs, *seed)
	if err != nil {
		return err
	}
	mismatches := 0
	for _, row := range rows {
		for _, c := range row.Cells {
			if !c.Match {
				mismatches++
			}
		}
	}
	if *jsonOut {
		if err := writeBench(*outdir, "BENCH_net.json", "E12 cross-runtime net matrix", rows); err != nil {
			return err
		}
	} else {
		fmt.Println("== E12: cross-runtime matrix — in-memory sim vs 3-process loopback TCP mesh ==")
		fmt.Printf("lockstep workload, %d messages; cell: per-msg latency / throughput / retransmits / idle-skips\n", *msgs)
		fmt.Printf("%-12s %-9s", "protocol", "sim")
		for _, cell := range conformance.NetMatrixCells() {
			fmt.Printf(" %-30s", cell)
		}
		fmt.Println(" views")
		for _, row := range rows {
			fmt.Printf("%-12s %-9s", row.Protocol,
				(time.Duration(row.SimUS) * time.Microsecond).Round(10*time.Microsecond))
			match := true
			for _, c := range row.Cells {
				s := fmt.Sprintf("%.0fµs %.0f/s r%d i%d",
					c.PerMsgUS, c.MsgsPerSec, c.Retransmits, c.IdleSkips)
				if !c.Match {
					s += " DIVERGED"
					match = false
				}
				fmt.Printf(" %-30s", s)
			}
			if match {
				fmt.Println(" identical")
			} else {
				fmt.Println(" DIVERGED")
			}
		}
		fmt.Println("expected shape: every cell 'identical' — loss and crash-restart are invisible")
		fmt.Println("in the user view; socket latency dominates per-message cost; idle-skips show")
		fmt.Println("the retransmit loop parking between lockstep steps.")
	}
	if mismatches > 0 {
		return fmt.Errorf("%d cells diverged between sim and mesh", mismatches)
	}
	return nil
}

// modProc is one spawned mod daemon in the smoke test.
type modProc struct {
	cmd    *exec.Cmd
	client *modrpc.Client
	done   chan error
}

// spawnMod starts one mod daemon and waits for its ready line.
func spawnMod(modbin string, id int, peers string) (*modProc, error) {
	cmd := exec.Command(modbin,
		"-id", fmt.Sprint(id), "-peers", peers,
		"-proto", "causal-rst", "-spec", "causal-b2",
		"-client", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &modProc{cmd: cmd, done: make(chan error, 1)}
	readyc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "mod ready ") {
				for _, f := range strings.Fields(line) {
					if v, ok := strings.CutPrefix(f, "client="); ok {
						readyc <- v
					}
				}
			}
		}
		p.done <- cmd.Wait()
	}()
	select {
	case clientAddr := <-readyc:
		c, err := modrpc.Dial(clientAddr, 2*time.Second)
		if err != nil {
			cmd.Process.Kill()
			return nil, err
		}
		p.client = c
		return p, nil
	case err := <-p.done:
		return nil, fmt.Errorf("mod %d exited before ready: %v", id, err)
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		return nil, fmt.Errorf("mod %d never became ready", id)
	}
}

// netSmoke is the verify-gate path: 3 real mod OS processes on
// loopback, the causal lockstep workload driven over their client
// sockets, and the reassembled user view diffed against the in-memory
// sim's. Any divergence (or daemon failure) is a non-zero exit.
func netSmoke(modbin string, msgCount int, seed int64) error {
	const procs = 3
	e, ok := registry.ByName("causal-rst")
	if !ok {
		return fmt.Errorf("causal-rst missing from registry")
	}
	msgs := conformance.NetWorkload(conformance.NetMatrixConfig{
		Procs: procs, Msgs: msgCount, Seed: seed,
	}, e.Colors)
	simView, err := conformance.SimLockstep(e.Maker, procs, seed, msgs)
	if err != nil {
		return fmt.Errorf("sim reference: %w", err)
	}

	addrs, err := conformance.LoopbackAddrs(procs)
	if err != nil {
		return err
	}
	peers := strings.Join(addrs, ",")
	mods := make([]*modProc, procs)
	defer func() {
		for _, p := range mods {
			if p == nil {
				continue
			}
			if p.client != nil {
				p.client.Close()
			}
			p.cmd.Process.Kill()
			<-p.done
		}
	}()
	for i := range mods {
		p, err := spawnMod(modbin, i, peers)
		if err != nil {
			return err
		}
		mods[i] = p
	}

	start := time.Now()
	want := make([]int, procs)
	for _, m := range msgs {
		if err := mods[m.From].client.Invoke(int(m.ID), m.To, m.Color); err != nil {
			return fmt.Errorf("invoke m%d: %w", m.ID, err)
		}
		want[m.To]++
		if err := mods[m.To].client.Wait(want[m.To], 15*time.Second); err != nil {
			return fmt.Errorf("waiting for m%d: %w", m.ID, err)
		}
	}
	elapsed := time.Since(start)

	procEvents := make([][]event.Event, procs)
	for p, mp := range mods {
		evs, _, err := mp.client.Events()
		if err != nil {
			return err
		}
		procEvents[p] = evs
	}
	meshView, err := userview.New(msgs, procEvents)
	if err != nil {
		return fmt.Errorf("multi-process view invalid: %w", err)
	}
	if simKey, meshKey := simView.Key(), meshView.Key(); simKey != meshKey {
		return fmt.Errorf("views diverge between sim and mod processes\n sim: %s\nmesh: %s", simKey, meshKey)
	}

	for i, p := range mods {
		if err := p.client.Shutdown(); err != nil {
			return fmt.Errorf("shutdown mod %d: %w", i, err)
		}
	}
	for i, p := range mods {
		select {
		case err := <-p.done:
			p.done <- nil // the deferred cleanup drains this channel again
			if err != nil {
				return fmt.Errorf("mod %d exit: %w", i, err)
			}
		case <-time.After(10 * time.Second):
			return fmt.Errorf("mod %d did not exit after shutdown", i)
		}
	}
	fmt.Printf("net smoke: %d msgs across 3 mod processes in %s (%.0f msg/s), views identical\n",
		len(msgs), elapsed.Round(time.Millisecond), float64(len(msgs))/elapsed.Seconds())
	return nil
}
