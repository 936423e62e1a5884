package netmesh

import (
	"testing"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/obs"
	"msgorder/internal/protocols/fifo"
	"msgorder/internal/shard"
)

// TestCheckpointSignals runs a sharded mesh with a metrics registry on
// one node and reads the checkpoint signals back: one blob-size sample
// per checkpoint, and the live-domain gauge at the node's domain count.
func TestCheckpointSignals(t *testing.T) {
	const keys = 7
	reg := obs.NewRegistry()
	nodes := startMeshNodes(t, 2, shard.New(fifo.Maker), func(i int, cfg *NodeConfig) {
		cfg.SnapshotEvery = 4
		if i == 0 {
			cfg.Metrics = reg
		}
	})
	msgs := seededMsgs(5, 2, 40)
	for i := range msgs {
		msgs[i].Key = event.Key(i%keys + 1)
	}
	lockstep(t, nodes, msgs, 5*time.Second)
	for _, node := range nodes {
		if err := node.Err(); err != nil {
			t.Fatal(err)
		}
	}
	s := reg.Snapshot()
	n := s.Counters["crash.wal.checkpoints"]
	if n == 0 {
		t.Fatal("no checkpoint counted")
	}
	if h := s.Histograms["crash.checkpoint.bytes"]; h.Count != n || h.Min <= 0 {
		t.Fatalf("crash.checkpoint.bytes = %+v, want %d positive samples", h, n)
	}
	if g := s.Gauges["shard.domains.live"]; g != keys {
		t.Fatalf("shard.domains.live = %d, want %d", g, keys)
	}
}
