// Multi-tenant conformance: N channels with heterogeneous guarantee
// levels multiplexed over ONE loopback TCP mesh must each reproduce,
// byte for byte, the user view of a standalone single-spec run of the
// same seeded workload. MuxMatrix interleaves the channels' lockstep
// workloads round-robin so every mesh connection genuinely carries
// mixed traffic, then diffs each channel's view against the in-memory
// sim reference — under a clean mesh, a lossy mesh, and a mid-run
// crash-restart of every channel's peer-1 instance. A divergence means
// multiplexing changed a protocol decision, which is exactly what the
// frame channel-ID demux and per-channel sequencing exist to prevent.
package conformance

import (
	"fmt"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/netmesh"
	"msgorder/internal/protocol"
	"msgorder/internal/transport"
)

// MuxCell is one (channel, disturbance) cell of the multi-tenant
// matrix. All channels of one disturbance shared a single mesh; the
// Mesh counters are that shared mesh's aggregate and repeat across the
// cell's rows.
type MuxCell struct {
	// Protocol is the catalog protocol the channel was pinned to.
	Protocol string
	// Cell names the mesh-side disturbance: clean, lossy, or
	// crash-restart.
	Cell string
	// Procs is the size of the shared mesh.
	Procs int
	// Match reports per-channel view equality with the standalone sim
	// reference (the acceptance criterion).
	Match bool
	// SimKey and MuxKey are the canonical view encodings compared.
	SimKey, MuxKey string
	// Stats aggregates the channel's per-peer protocol tallies.
	Stats protocol.Stats
	// Transport aggregates the channel's reliable-sublayer counters.
	Transport transport.Counters
	// Mesh aggregates the shared socket layer across peers.
	Mesh netmesh.Counters
	// UnknownDrops counts envelopes the shared mesh dropped for lack
	// of an open channel (must stay 0 under symmetric opens).
	UnknownDrops uint64
	// SimElapsed and MuxElapsed are the wall-clock run times; the mux
	// side timed the whole interleaved round-robin, so it is shared by
	// every row of the cell.
	SimElapsed, MuxElapsed time.Duration
}

// Err reports why the cell fails its acceptance check, or nil: on top
// of NetCell's clauses, no envelope may be dropped for an unknown
// channel, the channels must share one mesh (at most one accepted
// connection per directed peer pair), and a tagless channel must pay
// no tag bytes and no control messages while tagged channels share its
// connections.
func (c MuxCell) Err() error {
	name := c.Protocol + "/" + c.Cell
	switch {
	case !c.Match || c.SimKey == "":
		return fmt.Errorf("%s: multiplexed view diverges from standalone\n sim: %s\n mux: %s",
			name, c.SimKey, c.MuxKey)
	case c.UnknownDrops != 0:
		return fmt.Errorf("%s: %d envelopes dropped as unknown under symmetric opens", name, c.UnknownDrops)
	case c.Mesh.FramesIn == 0 || c.Mesh.FramesOut == 0:
		return fmt.Errorf("%s: no frames crossed the shared sockets", name)
	case c.Mesh.Accepted > c.Procs*(c.Procs-1):
		return fmt.Errorf("%s: %d accepted connections — channels are not sharing the mesh", name, c.Mesh.Accepted)
	case c.Protocol == "tagless" && (c.Stats.UserTagBytes != 0 || c.Stats.ControlMessages != 0):
		return fmt.Errorf("%s: tagless channel paid overhead while multiplexed: tags=%d ctrl=%d",
			name, c.Stats.UserTagBytes, c.Stats.ControlMessages)
	}
	return cellDisturbanceErr(name, c.Cell, c.Mesh, c.Stats)
}

// MuxMatrix runs the multi-tenant conformance sweep: every protocol
// becomes one channel on a shared mesh, all channels' seeded lockstep
// workloads interleave round-robin, and each channel's user view is
// diffed against a standalone in-memory sim run of the same workload.
// Callers assert Match on every cell — a false means multiplexing
// leaked between channels.
func MuxMatrix(cfg NetMatrixConfig, protos []NetProtocol) ([]MuxCell, error) {
	cfg = cfg.withDefaults()
	workloads := make([][]event.Message, len(protos))
	simKeys := make([]string, len(protos))
	simTimes := make([]time.Duration, len(protos))
	for ci, p := range protos {
		// Each channel gets its own seeded workload, so concurrent
		// channels do not mirror each other's traffic shape.
		per := cfg
		per.Seed = cfg.Seed + int64(ci)*101
		workloads[ci] = NetWorkload(per, p.Colors)
		v, elapsed, err := runSimLockstep(p.Maker, cfg.Procs, cfg.Seed, workloads[ci])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		simKeys[ci], simTimes[ci] = v.Key(), elapsed
	}
	var cells []MuxCell
	for _, cell := range NetMatrixCells() {
		o, err := runMatrixCell(cfg, cellSpec{name: "mux/" + cell, chans: protos}, cell, workloads)
		if err != nil {
			return nil, err
		}
		for ci, p := range protos {
			d := o.domains[ci]
			muxKey := d.view.Key()
			cells = append(cells, MuxCell{
				Protocol: p.Name, Cell: cell, Procs: cfg.Procs, Match: simKeys[ci] == muxKey, SimKey: simKeys[ci], MuxKey: muxKey,
				Stats: d.stats, Transport: d.transport, Mesh: o.mesh, UnknownDrops: o.drops,
				SimElapsed: simTimes[ci], MuxElapsed: o.elapsed,
			})
		}
	}
	return cells, nil
}
