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
	"msgorder/internal/userview"
)

// netCmd runs E12:
//
//	mobench net                    # print the cross-runtime table
//	mobench net -smoke -modbin M   # 3 real mod processes vs sim, diff views
func netCmd(args []string) error {
	fs := flag.NewFlagSet("mobench net", flag.ContinueOnError)
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
	protos, err := conformance.Protocols()
	if err != nil {
		return err
	}
	walDir, err := os.MkdirTemp("", "mobench-net-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	cells, err := conformance.NetMatrix(conformance.NetMatrixConfig{
		Procs: 3, Msgs: *msgs, Seed: *seed, WALDir: walDir,
	}, protos)
	if err != nil {
		return err
	}
	fmt.Println("== E12: cross-runtime matrix — in-memory sim vs 3-process loopback TCP mesh ==")
	fmt.Printf("lockstep workload, %d messages; cell: per-msg latency / throughput / retransmits / idle-skips\n", *msgs)
	fmt.Printf("%-12s %-9s", "protocol", "sim")
	for _, cell := range conformance.NetMatrixCells() {
		fmt.Printf(" %-30s", cell)
	}
	fmt.Println(" views")
	perRow := len(conformance.NetMatrixCells())
	for i := 0; i < len(cells); i += perRow {
		fmt.Printf("%-12s %-9s", cells[i].Protocol, cells[i].SimElapsed.Round(10*time.Microsecond))
		views := "identical"
		for _, c := range cells[i : i+perRow] {
			perMsg := c.MeshElapsed.Seconds() / float64(*msgs)
			s := fmt.Sprintf("%.0fµs %.0f/s r%d i%d",
				perMsg*1e6, 1/perMsg, c.Transport.Retransmits, c.Transport.IdleSkips)
			if !c.Match {
				s += " DIVERGED"
				views = "DIVERGED"
			}
			fmt.Printf(" %-30s", s)
		}
		fmt.Println(" " + views)
	}
	fmt.Println("expected shape: every cell 'identical' — loss and crash-restart are invisible")
	fmt.Println("in the user view; socket latency dominates per-message cost; idle-skips show")
	fmt.Println("the retransmit loop parking between lockstep steps.")
	for _, c := range cells {
		if err := c.Err(); err != nil {
			return err
		}
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
	ps, err := conformance.Protocols("causal-rst")
	if err != nil {
		return err
	}
	e := ps[0]
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
