package conformance

import (
	"fmt"
	"testing"
)

// TestMuxMatrixAllProtocolsAllCells is the multi-tenant acceptance
// gate: all 8 catalog protocols become channels on ONE shared mesh,
// their workloads interleave, and every channel's user view must be
// byte-identical to its standalone sim run — clean, lossy, and
// crash-restart alike — and be the one testdata/mux.golden holds. The
// tagless channel must additionally stay overhead-free even though
// tagged and general channels ride the same connections.
func TestMuxMatrixAllProtocolsAllCells(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second socket matrix")
	}
	protos := protocols(t)
	cells, err := MuxMatrix(NetMatrixConfig{
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
		lines = append(lines, fmt.Sprintf("%s/%s match=%t %s", c.Protocol, c.Cell, c.Match, viewField(c.SimKey, c.MuxKey)))
	}
	checkGolden(t, "mux", lines)
}

// TestMuxMatrixDefaults exercises the zero-value config path on a
// two-channel pairing (one tagless, one tagged). Its 4 messages may
// cross the lossy cell without a fault, so it asserts the views only.
func TestMuxMatrixDefaults(t *testing.T) {
	cells, err := MuxMatrix(NetMatrixConfig{Msgs: 4}, protocols(t, "tagless", "causal-rst"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	for _, c := range cells {
		if !c.Match || c.SimKey == "" {
			t.Fatalf("%s/%s diverged:\n sim: %s\nmesh: %s", c.Protocol, c.Cell, c.SimKey, c.MuxKey)
		}
	}
}
