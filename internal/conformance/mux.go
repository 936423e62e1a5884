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
	"os"
	"path/filepath"
	"time"

	"msgorder/internal/chanmux"
	"msgorder/internal/event"
	"msgorder/internal/netmesh"
	"msgorder/internal/protocol"
	"msgorder/internal/transport"
	"msgorder/internal/userview"
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

// muxWorkload gives each channel its own seeded lockstep workload so
// concurrent channels do not mirror each other's traffic shape.
func muxWorkload(cfg NetMatrixConfig, idx int, colors []event.Color) []event.Message {
	per := cfg
	per.Seed = cfg.Seed + int64(idx)*101
	return netWorkload(per, colors)
}

// runMuxCell executes every channel's workload over one shared mesh
// under the named disturbance and returns per-channel views.
func runMuxCell(protos []NetProtocol, cfg NetMatrixConfig, cell string, workloads [][]event.Message) ([]*userview.Run, []*MuxCell, error) {
	addrs, err := meshPorts(cfg.Procs)
	if err != nil {
		return nil, nil, err
	}
	var inj *transport.Injector
	if cell == "lossy" {
		inj = transport.NewInjector(transport.FaultPlan{
			DropRate: 0.2, DupRate: 0.1, Seed: cfg.Seed*0x9e3779b9 + 101,
		})
	}
	muxes := make([]*chanmux.Mux, cfg.Procs)
	defer func() {
		for _, m := range muxes {
			if m != nil {
				m.Close()
			}
		}
	}()
	for i := range muxes {
		mcfg := chanmux.Config{
			Self:  event.ProcID(i),
			Procs: cfg.Procs,
			Mesh: netmesh.MeshConfig{
				Addrs: addrs, Seed: cfg.Seed + int64(i), Injector: inj,
			},
			Transport: transport.Config{RTO: 2 * time.Millisecond, MaxRTO: 30 * time.Millisecond},
		}
		if cell == "crash-restart" {
			mcfg.SnapshotEvery = 8
			if cfg.WALDir != "" {
				mcfg.WALDir = filepath.Join(cfg.WALDir, fmt.Sprintf("mux-p%d", i))
				if err := os.MkdirAll(mcfg.WALDir, 0o755); err != nil {
					return nil, nil, err
				}
			}
		}
		m, err := chanmux.New(mcfg)
		if err != nil {
			return nil, nil, fmt.Errorf("mux/%s: peer %d: %w", cell, i, err)
		}
		muxes[i] = m
	}
	chans := make([][]*chanmux.Channel, len(protos))
	for ci, p := range protos {
		chans[ci] = make([]*chanmux.Channel, cfg.Procs)
		for i, m := range muxes {
			ch, err := m.Open(chanmux.Spec{Name: p.Name, Proto: p.Name})
			if err != nil {
				return nil, nil, fmt.Errorf("mux/%s: peer %d open %q: %w", cell, i, p.Name, err)
			}
			chans[ci][i] = ch
		}
	}

	// Interleaved lockstep: round r sends message r on every channel,
	// so the shared connections carry genuinely mixed frames. The
	// crash cell restarts every channel's P1 instance halfway through
	// (P0 is the sync protocols' coordinator, so the crash targets P1);
	// recovery must be invisible in every final view.
	start := time.Now()
	rounds := cfg.Msgs
	want := make([][]int, len(protos))
	for ci := range protos {
		want[ci] = make([]int, cfg.Procs)
	}
	for r := 0; r < rounds; r++ {
		if cell == "crash-restart" && r == rounds/2 {
			for ci := range protos {
				if err := chans[ci][1].Crash(10 * time.Millisecond); err != nil {
					return nil, nil, err
				}
			}
		}
		for ci, p := range protos {
			m := workloads[ci][r]
			if err := chans[ci][m.From].Invoke(m); err != nil {
				return nil, nil, fmt.Errorf("mux/%s: %s invoke m%d: %w", cell, p.Name, m.ID, err)
			}
			want[ci][m.To]++
			if err := chans[ci][m.To].WaitDeliveries(want[ci][m.To], cfg.PerMsg); err != nil {
				return nil, nil, fmt.Errorf("mux/%s: %s: %w", cell, p.Name, err)
			}
		}
	}
	elapsed := time.Since(start)

	var meshAgg netmesh.Counters
	var drops uint64
	for _, m := range muxes {
		if err := m.Err(); err != nil {
			return nil, nil, fmt.Errorf("mux/%s: %w", cell, err)
		}
		meshAgg.Add(m.MeshCounters())
		drops += m.UnknownDrops()
	}

	views := make([]*userview.Run, len(protos))
	cells := make([]*MuxCell, len(protos))
	for ci, p := range protos {
		out := &MuxCell{
			Protocol: p.Name, Cell: cell, MuxElapsed: elapsed,
			Mesh: meshAgg, UnknownDrops: drops,
		}
		procEvents := make([][]event.Event, cfg.Procs)
		for i := 0; i < cfg.Procs; i++ {
			ch := chans[ci][i]
			procEvents[i] = ch.Events()
			out.Stats.Add(ch.Stats())
			out.Transport.Add(ch.TransportCounters())
		}
		v, err := userview.New(workloads[ci], procEvents)
		if err != nil {
			return nil, nil, fmt.Errorf("mux/%s: %s view invalid: %w", cell, p.Name, err)
		}
		views[ci] = v
		cells[ci] = out
	}
	return views, cells, nil
}

// MuxLoadRow is one channel's result in the multiplexing-overhead
// comparison: the measured protocol's per-message cost and sustained
// throughput, solo on a mux mesh vs sharing the mesh with a companion
// channel carrying the same open-loop load.
type MuxLoadRow struct {
	// Runtime is "solo" (one channel on the mux mesh) or "shared"
	// (the channel rode the mesh alongside the companion).
	Runtime string `json:"runtime"`
	// Protocol is the channel's catalog protocol.
	Protocol string `json:"protocol"`
	// Companion names the other channel of a shared run.
	Companion string `json:"companion,omitempty"`
	// Msgs is the channel's workload length.
	Msgs int `json:"msgs"`
	// ElapsedMs is first-invoke→last-delivery wall time for the whole
	// (possibly shared) run.
	ElapsedMs float64 `json:"elapsed_ms"`
	// MsgsPerSec is the channel's sustained end-to-end throughput.
	MsgsPerSec float64 `json:"msgs_per_sec"`
	// TagBytesPerMsg and CtrlPerMsg are the channel's per-user-message
	// ordering overhead — the numbers that must not change when a
	// tagged channel shares the connection.
	TagBytesPerMsg float64 `json:"tag_bytes_per_msg"`
	CtrlPerMsg     float64 `json:"ctrl_per_msg"`
	// Retransmits sums the channel's reliable-sublayer repairs.
	Retransmits int `json:"retransmits"`
}

// runMuxLoad drives every channel's open-loop workload concurrently
// over one mux mesh and returns a row per channel.
func runMuxLoad(protos []NetProtocol, cfg LoadConfig) ([]MuxLoadRow, error) {
	cfg = cfg.withDefaults()
	addrs, err := meshPorts(cfg.Procs)
	if err != nil {
		return nil, err
	}
	muxes := make([]*chanmux.Mux, cfg.Procs)
	defer func() {
		for _, m := range muxes {
			if m != nil {
				m.Close()
			}
		}
	}()
	for i := range muxes {
		m, err := chanmux.New(chanmux.Config{
			Self:  event.ProcID(i),
			Procs: cfg.Procs,
			Mesh:  netmesh.MeshConfig{Addrs: addrs, Seed: cfg.Seed + int64(i)},
		})
		if err != nil {
			return nil, fmt.Errorf("muxload: peer %d: %w", i, err)
		}
		muxes[i] = m
	}
	chans := make([][]*chanmux.Channel, len(protos))
	workloads := make([][]event.Message, len(protos))
	for ci, p := range protos {
		chans[ci] = make([]*chanmux.Channel, cfg.Procs)
		for i, m := range muxes {
			ch, err := m.Open(chanmux.Spec{Name: p.Name, Proto: p.Name})
			if err != nil {
				return nil, fmt.Errorf("muxload: peer %d open %q: %w", i, p.Name, err)
			}
			chans[ci][i] = ch
		}
		per := cfg
		per.Seed = cfg.Seed + int64(ci)*101
		workloads[ci] = LoadWorkload(per, p.Colors)
	}

	// Open loop, channels interleaved per message so the shared
	// connections coalesce mixed frames the whole run.
	start := time.Now()
	for r := 0; r < cfg.Msgs; r++ {
		for ci := range protos {
			m := workloads[ci][r]
			if err := chans[ci][m.From].Invoke(m); err != nil {
				return nil, fmt.Errorf("muxload: %s invoke m%d: %w", protos[ci].Name, m.ID, err)
			}
		}
	}
	deadline := time.Now().Add(cfg.Timeout)
	for ci := range protos {
		want := make([]int, cfg.Procs)
		for _, m := range workloads[ci] {
			want[m.To]++
		}
		for i := 0; i < cfg.Procs; i++ {
			if err := chans[ci][i].WaitDeliveries(want[i], time.Until(deadline)); err != nil {
				return nil, fmt.Errorf("muxload: %s drain on P%d: %w", protos[ci].Name, i, err)
			}
		}
	}
	elapsed := time.Since(start)

	rows := make([]MuxLoadRow, len(protos))
	for ci, p := range protos {
		procEvents := make([][]event.Event, cfg.Procs)
		var stats protocol.Stats
		retransmits := 0
		for i := 0; i < cfg.Procs; i++ {
			procEvents[i] = chans[ci][i].Events()
			stats.Add(chans[ci][i].Stats())
			retransmits += chans[ci][i].TransportCounters().Retransmits
		}
		if _, err := userview.New(workloads[ci], procEvents); err != nil {
			return nil, fmt.Errorf("muxload: %s view invalid: %w", p.Name, err)
		}
		rows[ci] = MuxLoadRow{
			Protocol:       p.Name,
			Msgs:           cfg.Msgs,
			ElapsedMs:      float64(elapsed.Microseconds()) / 1000,
			MsgsPerSec:     float64(cfg.Msgs) / elapsed.Seconds(),
			TagBytesPerMsg: stats.TagBytesPerUser(),
			CtrlPerMsg:     stats.ControlPerUser(),
			Retransmits:    retransmits,
		}
	}
	return rows, nil
}

// MuxLoad measures what multiplexing costs a channel: the measured
// protocol runs the open-loop workload once as the mux mesh's only
// channel ("solo") and once sharing the mesh with a companion channel
// carrying its own equal load ("shared"). A tagless measured channel
// must show identical per-message overhead — zero tag bytes, zero
// control messages — in both rows; that invariance is the point of
// per-channel protocol instances.
func MuxLoad(cfg LoadConfig, measured, companion NetProtocol) ([]MuxLoadRow, error) {
	solo, err := runMuxLoad([]NetProtocol{measured}, cfg)
	if err != nil {
		return nil, err
	}
	solo[0].Runtime = "solo"
	shared, err := runMuxLoad([]NetProtocol{measured, companion}, cfg)
	if err != nil {
		return nil, err
	}
	for i := range shared {
		shared[i].Runtime = "shared"
		shared[i].Companion = companion.Name
		if shared[i].Protocol == companion.Name {
			shared[i].Companion = measured.Name
		}
	}
	return append(solo, shared...), nil
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
		workloads[ci] = muxWorkload(cfg, ci, p.Colors)
		v, elapsed, err := runSimLockstep(p.Maker, cfg.Procs, cfg.Seed, workloads[ci])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		simKeys[ci], simTimes[ci] = v.Key(), elapsed
	}
	var cells []MuxCell
	for _, cell := range NetMatrixCells() {
		views, outs, err := runMuxCell(protos, cfg, cell, workloads)
		if err != nil {
			return nil, err
		}
		for ci := range protos {
			out := outs[ci]
			out.SimKey = simKeys[ci]
			out.MuxKey = views[ci].Key()
			out.Match = out.SimKey == out.MuxKey
			out.SimElapsed = simTimes[ci]
			cells = append(cells, *out)
		}
	}
	return cells, nil
}
