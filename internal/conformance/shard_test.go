package conformance

import (
	"testing"

	"msgorder/internal/protocols/registry"
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
	cells, err := ShardMatrix(ShardMatrixConfig{
		Procs: 3, Msgs: 24, Seed: 5, Keys: 6,
	}, catalogNetProtocols())
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(registry.Catalog()) * 2
	if len(cells) != wantCells {
		t.Fatalf("matrix has %d cells, want %d", len(cells), wantCells)
	}
	for _, c := range cells {
		if !c.Match {
			t.Errorf("%s/%s: key %#x diverged from its unsharded single-key run",
				c.Protocol, c.Runtime, uint64(c.MismatchKey))
		}
	}
}

// TestShardMatrixDefaults exercises the zero-value config path on one
// cheap protocol.
func TestShardMatrixDefaults(t *testing.T) {
	e := registry.Catalog()[0]
	cells, err := ShardMatrix(ShardMatrixConfig{Msgs: 8}, []NetProtocol{
		{Name: e.Name, Maker: e.Maker, Colors: e.Colors},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		if !c.Match {
			t.Fatalf("%s/%s diverged at key %#x", c.Protocol, c.Runtime, uint64(c.MismatchKey))
		}
		if c.Keys != 8 {
			t.Fatalf("default Keys = %d, want 8", c.Keys)
		}
	}
}
