package conformance

import (
	"fmt"
	"testing"
)

// TestNetMatrixAllProtocolsAllCells is the cross-runtime acceptance
// gate: every catalog protocol must produce the identical user view on
// the in-memory sim and on a 3-process loopback TCP mesh — including
// the lossy and crash-restart cells, whose disturbances must be
// invisible in the view — and every cell's view must be the one
// testdata/net.golden holds.
func TestNetMatrixAllProtocolsAllCells(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second socket matrix")
	}
	protos := protocols(t)
	cells, err := NetMatrix(NetMatrixConfig{
		Procs: 3, Msgs: 16, Seed: 5, WALDir: t.TempDir(),
	}, protos)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(protos) * len(NetMatrixCells()); len(cells) != want {
		t.Fatalf("matrix has %d cells, want %d", len(cells), want)
	}
	var lines []string
	for _, c := range cells {
		if err := c.Err(); err != nil {
			t.Error(err)
		}
		lines = append(lines, fmt.Sprintf("%s/%s match=%t %s", c.Protocol, c.Cell, c.Match, viewField(c.SimKey, c.MeshKey)))
	}
	checkGolden(t, "net", lines)
}

// TestNetMatrixDefaults exercises the zero-value config path on a
// single cheap protocol pairing. Its 4 messages may cross the lossy
// cell without a fault, so it asserts the views only.
func TestNetMatrixDefaults(t *testing.T) {
	cells, err := NetMatrix(NetMatrixConfig{Msgs: 4}, protocols(t)[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(cells))
	}
	for _, c := range cells {
		if !c.Match || c.SimKey == "" {
			t.Fatalf("%s/%s diverged:\n sim: %s\nmesh: %s", c.Protocol, c.Cell, c.SimKey, c.MeshKey)
		}
	}
}
