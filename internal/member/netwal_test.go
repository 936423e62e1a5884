package member_test

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/member"
	"msgorder/internal/netmesh"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/registry"
)

// TestRebuildNetmeshWAL captures a process's state from a WAL the
// socket runtime wrote — checkpoints carrying the reliable sublayer's
// state next to the protocol's — and rebuilds it: the host's one blob
// shape makes either runtime's journal rebuildable the same way. The
// suffix must replay, project onto the tail of the live user view, and
// survive a materialize round trip byte-identically.
func TestRebuildNetmeshWAL(t *testing.T) {
	entry, _ := registry.ByName("causal-rst")
	const procs = 2
	dir := t.TempDir()
	addrs := make([]string, procs)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	walPath := func(i int) string { return filepath.Join(dir, fmt.Sprintf("p%d.wal", i)) }
	nodes := make([]*netmesh.Node, procs)
	for i := range nodes {
		n, err := netmesh.NewNode(netmesh.NodeConfig{
			Self: event.ProcID(i), Procs: procs, Maker: entry.Maker,
			Mesh:    netmesh.MeshConfig{Addrs: addrs, Fingerprint: netmesh.Fingerprint(entry.Name, "spec", procs), Seed: int64(i + 1)},
			WALPath: walPath(i), SnapshotEvery: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
	}
	rec := protocol.NewRecorder(procs)
	want := make([]int, procs)
	for i := 0; i < 11; i++ {
		m := rec.NewMessage(event.ProcID(i%procs), event.ProcID(1-i%procs), event.ColorNone)
		if err := nodes[m.From].Invoke(m); err != nil {
			t.Fatal(err)
		}
		want[m.To]++
		if err := nodes[m.To].WaitDeliveries(want[m.To], 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	live := nodes[0].Events()
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}

	w, err := crash.OpenFileWAL(walPath(0))
	if err != nil {
		t.Fatal(err)
	}
	cp := member.Capture(1, 0, w)
	w.Close()
	if cp.Snapshot == nil || len(cp.Suffix) == 0 {
		t.Fatalf("netmesh WAL gave checkpoint %v and %d suffix entries, want both", cp.Snapshot != nil, len(cp.Suffix))
	}
	inst, replayed, err := cp.Rebuild(entry.Maker, procs)
	if err != nil {
		t.Fatalf("rebuild from a netmesh WAL: %v", err)
	}
	inputs := 0
	for _, e := range cp.Suffix {
		if e.Input() {
			inputs++
		}
	}
	if replayed != inputs {
		t.Fatalf("replayed %d inputs, suffix holds %d", replayed, inputs)
	}
	got := member.UserEvents(cp.Suffix)
	if len(got) > len(live) {
		t.Fatalf("suffix projects %d user events, live run recorded %d", len(got), len(live))
	}
	for i, e := range got {
		if tail := live[len(live)-len(got)+i]; e != tail {
			t.Fatalf("suffix event %d = %+v, live tail has %+v", i, e, tail)
		}
	}

	joinPath := filepath.Join(dir, "join.wal")
	if err := cp.Materialize(joinPath); err != nil {
		t.Fatal(err)
	}
	jw, err := crash.OpenFileWAL(joinPath)
	if err != nil {
		t.Fatal(err)
	}
	jcp := member.Capture(2, 0, jw)
	jw.Close()
	jinst, _, err := jcp.Rebuild(entry.Maker, procs)
	if err != nil {
		t.Fatalf("rebuild from the materialized copy: %v", err)
	}
	a, b := inst.(protocol.Snapshotter).Snapshot(), jinst.(protocol.Snapshotter).Snapshot()
	if !bytes.Equal(a, b) {
		t.Fatal("materialized copy rebuilds to a different state")
	}
}
