// Cross-runtime conformance: the same seeded workload executed on the
// in-memory live harness and on a real multi-process loopback TCP mesh
// must produce identical user views. Delivery order is only comparable
// across runtimes if it is invocation-determined, so NetMatrix drives
// a lockstep (linearized) workload — invoke one message, wait for its
// delivery, invoke the next — on both sides; under lockstep every
// catalog protocol's view is a pure function of the message list, and
// a divergence means the socket runtime changed a protocol decision.
// The lossy and crash-restart cells then assert something stronger:
// retransmission and WAL recovery are *transparent* — the disturbed
// mesh still reproduces the clean sim view byte for byte. (Concurrency
// stress, where views legitimately diverge, lives in the netmesh soak
// test instead.)
package conformance

import (
	"cmp"
	"fmt"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/netmesh"
	"msgorder/internal/predicate"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/registry"
	"msgorder/internal/sim"
	"msgorder/internal/transport"
	"msgorder/internal/userview"
)

// NetProtocol names one protocol for the mesh-backed matrices (the
// caller supplies makers so the runners stay protocol-agnostic).
type NetProtocol struct {
	Name  string
	Maker protocol.Maker
	// Colors is the workload color mix (nil = colorless).
	Colors []event.Color
	// Pred, when non-nil, is the forbidden-predicate specification the
	// churn matrix validates its final mesh view against.
	Pred *predicate.Predicate
}

// Protocols resolves registry protocol names into matrix inputs,
// specification predicates included; no names means the registry's
// 8-protocol catalog. mobench and the tests both build their rows
// through it, so a protocol name means one thing in every matrix.
func Protocols(names ...string) ([]NetProtocol, error) {
	if len(names) == 0 {
		for _, e := range registry.Catalog() {
			names = append(names, e.Name)
		}
	}
	out := make([]NetProtocol, 0, len(names))
	for _, name := range names {
		e, ok := registry.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown protocol %q (see 'mobench protocols')", name)
		}
		out = append(out, NetProtocol{Name: e.Name, Maker: e.Maker, Colors: e.Colors, Pred: e.Pred()})
	}
	return out, nil
}

// NetMatrixConfig shapes the cross-runtime sweep.
type NetMatrixConfig struct {
	// Procs is the mesh size (default 3).
	Procs int
	// Msgs is the lockstep workload length (default 16).
	Msgs int
	// Seed drives the workload shape (default 1).
	Seed int64
	// PerMsg bounds one lockstep delivery wait on the mesh
	// (default 10s).
	PerMsg time.Duration
	// WALDir, when non-empty, makes crash-restart cells file-backed.
	WALDir string
}

func (c NetMatrixConfig) withDefaults() NetMatrixConfig {
	c.Procs, c.Msgs, c.Seed = cmp.Or(c.Procs, 3), cmp.Or(c.Msgs, 16), cmp.Or(c.Seed, 1)
	if c.PerMsg <= 0 {
		c.PerMsg = 10 * time.Second
	}
	return c
}

// NetCell is one (protocol, disturbance) cell of the cross-runtime
// matrix.
type NetCell struct {
	Protocol string
	// Cell names the mesh-side disturbance: clean, lossy, or
	// crash-restart. The sim reference is always the clean run.
	Cell string
	// Match reports view equality (the acceptance criterion).
	Match bool
	// SimKey and MeshKey are the canonical view encodings compared.
	SimKey, MeshKey string
	// Stats aggregates the mesh nodes' protocol tallies.
	Stats protocol.Stats
	// Transport aggregates the mesh nodes' reliable-sublayer counters.
	Transport transport.Counters
	// Mesh aggregates the socket-layer counters.
	Mesh netmesh.Counters
	// SimElapsed and MeshElapsed are the wall-clock run times.
	SimElapsed, MeshElapsed time.Duration
}

// Err reports why the cell fails its acceptance check, or nil: the
// views must match, frames must have crossed the sockets, a lossy cell
// must have injected faults, and a crash-restart cell must record
// exactly one crash and one recovery.
func (c NetCell) Err() error {
	switch {
	case !c.Match || c.SimKey == "":
		return fmt.Errorf("%s/%s: views diverge across runtimes\n sim: %s\nmesh: %s",
			c.Protocol, c.Cell, c.SimKey, c.MeshKey)
	case c.Mesh.FramesIn == 0 || c.Mesh.FramesOut == 0:
		return fmt.Errorf("%s/%s: no frames crossed the sockets", c.Protocol, c.Cell)
	}
	return cellDisturbanceErr(c.Protocol+"/"+c.Cell, c.Cell, c.Mesh, c.Stats)
}

// cellDisturbanceErr checks that a lossy or crash-restart cell was
// really disturbed: the net and mux matrices share this clause.
func cellDisturbanceErr(name, cell string, mesh netmesh.Counters, st protocol.Stats) error {
	switch {
	case cell == "lossy" && mesh.FaultsInjected == 0:
		return fmt.Errorf("%s: no faults injected — cell degenerated to clean", name)
	case cell == "crash-restart" && (st.Crashes != 1 || st.Recoveries != 1):
		return fmt.Errorf("%s: crashes/recoveries = %d/%d, want 1/1", name, st.Crashes, st.Recoveries)
	}
	return nil
}

// NetWorkload derives the lockstep message list from the same seeded
// stream the other conformance matrices use. Exported so external
// drivers (mobench's net smoke over real OS processes) run the
// identical workload the in-process matrix runs.
func NetWorkload(cfg NetMatrixConfig, colors []event.Color) []event.Message {
	cfg = cfg.withDefaults()
	w := newWorkload(Config{Procs: cfg.Procs, InitialMsgs: cfg.Msgs, Seed: cfg.Seed, Colors: colors}.withDefaults())
	msgs := make([]event.Message, cfg.Msgs)
	for i := range msgs {
		from, to, color := w.initial()
		msgs[i] = event.Message{ID: event.MsgID(i), From: from, To: to, Color: color}
	}
	return msgs
}

// SimLockstep runs the message list on the in-memory sim in lockstep
// and returns the reference user view external drivers diff against.
func SimLockstep(maker protocol.Maker, procs int, seed int64, msgs []event.Message) (*userview.Run, error) {
	v, _, err := runSimLockstep(maker, procs, seed, msgs)
	return v, err
}

// runSimLockstep executes the message list on the in-memory live
// harness, one quiescent step per message, and returns the user view.
func runSimLockstep(maker protocol.Maker, procs int, seed int64, msgs []event.Message) (*userview.Run, time.Duration, error) {
	nw := sim.New(procs, maker, sim.WithSeed(seed))
	start := time.Now()
	for _, m := range msgs {
		if err := nw.Invoke(sim.Request{From: m.From, To: m.To, Color: m.Color, Key: m.Key}); err != nil {
			return nil, 0, fmt.Errorf("sim invoke m%d: %w", m.ID, err)
		}
		if err := nw.Quiesce(); err != nil {
			return nil, 0, fmt.Errorf("sim quiesce after m%d: %w", m.ID, err)
		}
	}
	elapsed := time.Since(start)
	res, err := nw.Stop()
	if err != nil {
		return nil, 0, err
	}
	if len(res.Undelivered) > 0 {
		return nil, 0, fmt.Errorf("sim lockstep left %d undelivered", len(res.Undelivered))
	}
	return res.View, elapsed, nil
}

// NetMatrixCells lists the mesh-side disturbances every protocol is
// swept across.
func NetMatrixCells() []string { return []string{"clean", "lossy", "crash-restart"} }

// NetMatrix runs the cross-runtime conformance sweep: for every
// protocol, the seeded lockstep workload executes once on the
// in-memory sim (the reference view) and once per cell on a loopback
// TCP mesh; each cell reports whether the views matched. Callers
// assert Match — a false is a real cross-runtime divergence.
func NetMatrix(cfg NetMatrixConfig, protos []NetProtocol) ([]NetCell, error) {
	cfg = cfg.withDefaults()
	var cells []NetCell
	for _, p := range protos {
		msgs := NetWorkload(cfg, p.Colors)
		simView, simElapsed, err := runSimLockstep(p.Maker, cfg.Procs, cfg.Seed, msgs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		simKey := simView.Key()
		for _, cell := range NetMatrixCells() {
			o, err := runMatrixCell(cfg, cellSpec{name: p.Name + "/" + cell, maker: p.Maker}, cell, [][]event.Message{msgs})
			if err != nil {
				return nil, err
			}
			d := o.domains[0]
			meshKey := d.view.Key()
			cells = append(cells, NetCell{
				Protocol: p.Name, Cell: cell, Match: simKey == meshKey, SimKey: simKey, MeshKey: meshKey,
				Stats: d.stats, Transport: d.transport, Mesh: o.mesh,
				SimElapsed: simElapsed, MeshElapsed: o.elapsed,
			})
		}
	}
	return cells, nil
}
