package netmesh

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/host"
	"msgorder/internal/protocols/causal"
	"msgorder/internal/transport"
	"msgorder/internal/userview"
)

// TestDurableRestartAcrossProcessReincarnation is the regression test
// for the crash-restart cum-ack bug: a node closed and reopened on the
// same WALPath (the OS-process restart path) must come back with its
// transport state intact. Before the fix, the reincarnation's sender
// counters reset to zero — the peer dropped every new send as a
// duplicate — and its receiver high-water marks regressed, re-delivering
// wires the previous incarnation had already accepted. Either failure
// mode breaks the exactly-once check below: resets time out waiting for
// deliveries, regressions produce duplicate events userview.New rejects.
func TestDurableRestartAcrossProcessReincarnation(t *testing.T) {
	dir := t.TempDir()
	addrs := freePorts(t, 2)
	fp := Fingerprint("causal-rst", "spec", 2)
	mkCfg := func(i int) NodeConfig {
		return NodeConfig{
			Self:  event.ProcID(i),
			Procs: 2,
			Maker: causal.RSTMaker,
			Mesh:  MeshConfig{Addrs: addrs, Fingerprint: fp, Seed: int64(i + 1)},
			Transport: transport.Config{
				RTO: 2 * time.Millisecond, MaxRTO: 30 * time.Millisecond,
			},
			WALPath:       filepath.Join(dir, fmt.Sprintf("p%d.wal", i)),
			SnapshotEvery: 4,
		}
	}
	n0, err := NewNode(mkCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	n1, err := NewNode(mkCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()

	msgs := seededMsgs(31, 2, 20)
	mid := len(msgs) / 2
	lockstep(t, []*Node{n0, n1}, msgs[:mid], 5*time.Second)

	// Reincarnate process 0: full Close (mesh listener torn down), then
	// a fresh Node on the same WAL path and port.
	ev0 := n0.Events()
	if err := n0.Close(); err != nil {
		t.Fatal(err)
	}
	n0b, err := NewNode(mkCfg(0))
	if err != nil {
		t.Fatalf("reincarnation failed to boot: %v", err)
	}
	defer n0b.Close()
	if s := n0b.Stats(); s.Recoveries != 1 {
		t.Fatalf("boot restore stats = %+v, want 1 recovery", s)
	}

	lockstep(t, []*Node{n0b, n1}, msgs[mid:], 10*time.Second)

	// Exactly-once across both incarnations: process 0's local order is
	// incarnation 1's events followed by incarnation 2's.
	procs := [][]event.Event{
		append(append([]event.Event(nil), ev0...), n0b.Events()...),
		n1.Events(),
	}
	v, err := userview.New(msgs, procs)
	if err != nil {
		t.Fatalf("restart broke exactly-once: %v", err)
	}
	if !v.IsComplete() {
		t.Fatal("messages lost across the durable restart")
	}
	if !v.InCO() {
		t.Fatal("causal order broken across the durable restart")
	}
	for _, node := range []*Node{n0b, n1} {
		if err := node.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBootOnFreshWALIsNotARecovery pins down that a first boot on an
// empty (or absent) WAL file takes the plain Init path.
func TestBootOnFreshWALIsNotARecovery(t *testing.T) {
	dir := t.TempDir()
	nodes := startMeshNodes(t, 2, causal.RSTMaker, func(i int, cfg *NodeConfig) {
		cfg.WALPath = filepath.Join(dir, fmt.Sprintf("p%d.wal", i))
	})
	if s := nodes[0].Stats(); s.Recoveries != 0 {
		t.Fatalf("fresh boot counted %d recoveries", s.Recoveries)
	}
	lockstep(t, nodes, seededMsgs(5, 2, 4), 5*time.Second)
}

// TestDurableBootRefusesDivergentJournal durable-boots a node from a
// copy of its WAL in which one journaled send was altered: replay
// re-emits the original send, so boot must fail with the host's
// sentinel instead of going live.
func TestDurableBootRefusesDivergentJournal(t *testing.T) {
	dir := t.TempDir()
	nodes := startMeshNodes(t, 2, causal.RSTMaker, func(i int, cfg *NodeConfig) {
		cfg.WALPath = filepath.Join(dir, fmt.Sprintf("p%d.wal", i))
	})
	lockstep(t, nodes, seededMsgs(7, 2, 6), 5*time.Second)
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	src, err := crash.OpenFileWAL(filepath.Join(dir, "p0.wal"))
	if err != nil {
		t.Fatal(err)
	}
	snap, entries := src.Replay()
	src.Close()
	altered := false
	for i := range entries {
		if entries[i].Kind == crash.EntrySend {
			entries[i].Wire.Msg += 100
			altered = true
			break
		}
	}
	if !altered {
		t.Fatal("journal holds no send to alter")
	}
	path := filepath.Join(dir, "altered.wal")
	dst, err := crash.OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		if err := dst.Checkpoint(snap); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range entries {
		if err := dst.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = NewNode(NodeConfig{
		Self: 0, Procs: 2, Maker: causal.RSTMaker, WALPath: path,
		Mesh: MeshConfig{Addrs: freePorts(t, 2), Fingerprint: Fingerprint("test", "spec", 2)},
	})
	if !errors.Is(err, host.ErrReplayDiverged) || !errors.Is(err, ErrProtocol) {
		t.Fatalf("boot err = %v, want ErrProtocol wrapping host.ErrReplayDiverged", err)
	}
}
