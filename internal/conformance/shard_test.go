package conformance

import (
	"fmt"
	"testing"
)

// TestShardMatrixAllProtocols is the sharding acceptance gate: for
// every catalog protocol, a keyed lockstep workload run on the sharded
// sim and on a sharded loopback TCP mesh must project, key by key, to
// views byte-identical to unsharded single-key runs of each domain's
// sub-workload. A divergence means sharding changed an ordering
// decision — one domain's traffic leaked into another.
func TestShardMatrixAllProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second socket matrix")
	}
	protos := protocols(t)
	cells, err := ShardMatrix(ShardMatrixConfig{
		Procs: 3, Msgs: 24, Seed: 5, Keys: 6,
	}, protos)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(protos) * 2; len(cells) != want {
		t.Fatalf("matrix has %d cells, want %d", len(cells), want)
	}
	var lines []string
	for _, c := range cells {
		if err := c.Err(); err != nil {
			t.Error(err)
		}
		lines = append(lines, fmt.Sprintf("%s/%s keys=%d match=%t", c.Protocol, c.Runtime, c.Keys, c.Match))
	}
	checkGolden(t, "shard", lines)
}

// TestShardMatrixDefaults exercises the zero-value config path on one
// cheap protocol.
func TestShardMatrixDefaults(t *testing.T) {
	cells, err := ShardMatrix(ShardMatrixConfig{Msgs: 8}, protocols(t)[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		if c.Keys != 8 {
			t.Fatalf("default Keys = %d, want 8", c.Keys)
		}
	}
}
