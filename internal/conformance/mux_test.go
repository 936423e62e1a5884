package conformance

import (
	"testing"

	"msgorder/internal/protocols/registry"
)

// TestMuxMatrixAllProtocolsAllCells is the multi-tenant acceptance
// gate: all 8 catalog protocols become channels on ONE shared mesh,
// their workloads interleave, and every channel's user view must be
// byte-identical to its standalone sim run — clean, lossy, and
// crash-restart alike. The tagless channel must additionally stay
// overhead-free even though tagged and general channels ride the same
// connections.
func TestMuxMatrixAllProtocolsAllCells(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second socket matrix")
	}
	protos := catalogNetProtocols()
	cells, err := MuxMatrix(NetMatrixConfig{
		Procs: 3, Msgs: 16, Seed: 5, WALDir: t.TempDir(),
	}, protos)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(protos) * len(NetMatrixCells())
	if len(cells) != wantCells {
		t.Fatalf("matrix has %d cells, want %d", len(cells), wantCells)
	}
	for _, c := range cells {
		if !c.Match {
			t.Errorf("%s/%s: multiplexed view diverges from standalone\n sim: %s\n mux: %s",
				c.Protocol, c.Cell, c.SimKey, c.MuxKey)
			continue
		}
		if c.UnknownDrops != 0 {
			t.Errorf("%s/%s: %d envelopes dropped as unknown under symmetric opens",
				c.Protocol, c.Cell, c.UnknownDrops)
		}
		if c.Mesh.FramesIn == 0 || c.Mesh.FramesOut == 0 {
			t.Errorf("%s/%s: no frames crossed the shared sockets", c.Protocol, c.Cell)
		}
		// One mesh carried all channels: at most one accepted
		// connection per peer pair across the whole 3-peer cell.
		if c.Mesh.Accepted > 6 {
			t.Errorf("%s/%s: %d accepted connections — channels are not sharing the mesh",
				c.Protocol, c.Cell, c.Mesh.Accepted)
		}
		if c.Protocol == "tagless" && (c.Stats.UserTagBytes != 0 || c.Stats.ControlMessages != 0) {
			t.Errorf("tagless/%s: channel paid overhead while multiplexed: tags=%d ctrl=%d",
				c.Cell, c.Stats.UserTagBytes, c.Stats.ControlMessages)
		}
		switch c.Cell {
		case "lossy":
			if c.Mesh.FaultsInjected == 0 {
				t.Errorf("%s/lossy: no faults injected — cell degenerated to clean", c.Protocol)
			}
		case "crash-restart":
			if c.Stats.Crashes != 1 || c.Stats.Recoveries != 1 {
				t.Errorf("%s/crash-restart: crashes/recoveries = %d/%d, want 1/1",
					c.Protocol, c.Stats.Crashes, c.Stats.Recoveries)
			}
		}
	}
}

// TestMuxMatrixDefaults exercises the zero-value config path on a
// two-channel pairing (one tagless, one tagged).
func TestMuxMatrixDefaults(t *testing.T) {
	var protos []NetProtocol
	for _, name := range []string{"tagless", "causal-rst"} {
		e, ok := registry.ByName(name)
		if !ok {
			t.Fatalf("catalog protocol %q missing", name)
		}
		protos = append(protos, NetProtocol{Name: e.Name, Maker: e.Maker, Colors: e.Colors})
	}
	cells, err := MuxMatrix(NetMatrixConfig{Msgs: 4}, protos)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	for _, c := range cells {
		if !c.Match {
			t.Fatalf("%s/%s diverged:\n sim: %s\n mux: %s", c.Protocol, c.Cell, c.SimKey, c.MuxKey)
		}
		if c.SimKey == "" || c.MuxKey == "" {
			t.Fatalf("%s/%s: empty view keys", c.Protocol, c.Cell)
		}
	}
}
