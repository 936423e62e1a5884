package conformance

import (
	"fmt"
	"slices"
	"testing"
)

// assertChurnCells checks the cell count and every cell's acceptance
// check, and returns the cells' golden lines.
func assertChurnCells(t *testing.T, cells []ChurnCell, wantCells int) []string {
	t.Helper()
	if len(cells) != wantCells {
		t.Fatalf("matrix has %d cells, want %d", len(cells), wantCells)
	}
	var lines []string
	for _, c := range cells {
		if err := c.Err(); err != nil {
			t.Error(err)
		}
		lines = append(lines, fmt.Sprintf("%s/%s/%s match=%t spec-violation=%t epoch=%d evicted=%v msgs=%d %s",
			c.Protocol, c.Op, c.Env, c.Match, c.SpecViolation, c.Epoch, c.Evicted, c.Msgs, viewField(c.SimKey, c.MeshKey)))
	}
	return lines
}

// TestChurnMatrixSmoke runs one cheap protocol through every churn op
// under the clean environment — the fast gate that always runs.
func TestChurnMatrixSmoke(t *testing.T) {
	p := protocols(t, "fifo")[0]
	var cells []ChurnCell
	for _, op := range ChurnOps() {
		cell, err := runChurnCell(p, ChurnConfig{WALDir: t.TempDir()}.withDefaults(), op, "clean")
		if err != nil {
			t.Fatalf("%s/clean: %v", op, err)
		}
		cells = append(cells, cell)
	}
	assertChurnCells(t, cells, len(ChurnOps()))
}

// TestChurnMatrixAllProtocolsAllCells is the membership acceptance
// gate: every catalog protocol plus the live §5 handoff protocol must
// survive every (op, env) churn cell — joiners byte-identical after
// state transfer, evictions exact, views matching the sim reference
// and testdata/churn.golden. Most of a cell's wall time is spent
// waiting out retransmission timeouts, so protocols run as parallel
// subtests (up to -parallel at once), each on its own meshes.
func TestChurnMatrixAllProtocolsAllCells(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second churn matrix")
	}
	protos := append(protocols(t), protocols(t, "handoff")...)
	lines := make([][]string, len(protos))
	t.Run("protocol", func(t *testing.T) {
		for i, p := range protos {
			t.Run(p.Name, func(t *testing.T) {
				t.Parallel()
				cells, err := ChurnMatrix(ChurnConfig{Seed: 3, WALDir: t.TempDir()}, []NetProtocol{p})
				if err != nil {
					t.Fatal(err)
				}
				lines[i] = assertChurnCells(t, cells, len(ChurnOps())*len(ChurnEnvs()))
			})
		}
	})
	checkGolden(t, "churn", slices.Concat(lines...))
}

// TestChurnMatrixValidatesConfig pins the required-config errors.
func TestChurnMatrixValidatesConfig(t *testing.T) {
	if _, err := ChurnMatrix(ChurnConfig{}, nil); err == nil {
		t.Fatal("missing WALDir accepted")
	}
	if _, err := ChurnMatrix(ChurnConfig{Procs: 2, WALDir: t.TempDir()}, nil); err == nil {
		t.Fatal("2-process churn accepted (no survivors quorum)")
	}
}
