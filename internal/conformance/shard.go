// Ordering-key sharding conformance: a sharded runtime must be
// observationally equivalent, per key, to running each ordering domain
// alone on the unsharded protocol — the key partitions the message pairs
// the forbidden predicate ranges over, so the per-key projection of a
// sharded run and an unsharded single-key run of the same sub-workload
// must produce byte-identical canonical views.
package conformance

import (
	"cmp"
	"fmt"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/shard"
	"msgorder/internal/userview"
)

// ShardWorkload derives the seeded lockstep message list and stamps it
// with keys ordering domains ("domain-0".."domain-<keys-1>")
// round-robin, so every domain sees an interleaved slice of the stream
// rather than a contiguous block.
func ShardWorkload(cfg NetMatrixConfig, colors []event.Color, keys int) []event.Message {
	msgs := NetWorkload(cfg, colors)
	for i := range msgs {
		msgs[i].Key = event.KeyOf(fmt.Sprintf("domain-%d", i%max(keys, 1)))
	}
	return msgs
}

// subWorkload extracts one ordering domain's messages, renumbered to
// contiguous IDs in their original order — exactly the renumbering
// userview's ProjectKey applies, so the two canonical views are
// directly comparable.
func subWorkload(msgs []event.Message, k event.Key) []event.Message {
	var sub []event.Message
	for _, m := range msgs {
		if m.Key == k {
			m.ID = event.MsgID(len(sub))
			sub = append(sub, m)
		}
	}
	return sub
}

// ShardMatrixConfig shapes the per-key equivalence sweep.
type ShardMatrixConfig struct {
	// Procs, Msgs, Seed, PerMsg shape the lockstep workload exactly as
	// in NetMatrixConfig.
	Procs  int
	Msgs   int
	Seed   int64
	PerMsg time.Duration
	// Keys is the number of ordering domains stamped onto the workload
	// (default 8).
	Keys int
}

func (c ShardMatrixConfig) withDefaults() ShardMatrixConfig {
	c.Keys = cmp.Or(c.Keys, 8)
	return c
}

func (c ShardMatrixConfig) net() NetMatrixConfig {
	return NetMatrixConfig{Procs: c.Procs, Msgs: c.Msgs, Seed: c.Seed, PerMsg: c.PerMsg}.withDefaults()
}

// ShardCell is one (protocol, runtime) row of the per-key equivalence
// matrix: the sharded run's per-key projections diffed against
// unsharded single-key reference runs.
type ShardCell struct {
	Protocol string
	// Runtime is "sim" or "mesh" (the sharded side; the reference is
	// always the unsharded single-key sim run).
	Runtime string
	// Keys is the number of ordering domains in the workload.
	Keys int
	// Match reports that every domain's projection was byte-identical
	// to its reference view (the acceptance criterion).
	Match bool
	// MismatchKey identifies the first diverging domain when !Match.
	MismatchKey event.Key
	// Elapsed is the sharded run's wall time.
	Elapsed time.Duration
}

// Err reports why the cell fails its acceptance check, or nil: every
// domain's projection must match its unsharded single-key run.
func (c ShardCell) Err() error {
	if !c.Match {
		return fmt.Errorf("%s/%s: key %#x diverged from its unsharded single-key run",
			c.Protocol, c.Runtime, uint64(c.MismatchKey))
	}
	return nil
}

// shardRefs runs each ordering domain's sub-workload alone on the
// unsharded protocol and returns the canonical reference view per key.
func shardRefs(p NetProtocol, cfg NetMatrixConfig, msgs []event.Message) (map[event.Key]string, error) {
	refs := make(map[event.Key]string)
	for _, m := range msgs {
		if _, done := refs[m.Key]; done {
			continue
		}
		v, _, err := runSimLockstep(p.Maker, cfg.Procs, cfg.Seed, subWorkload(msgs, m.Key))
		if err != nil {
			return nil, fmt.Errorf("%s: unsharded reference for key %#x: %w", p.Name, uint64(m.Key), err)
		}
		refs[m.Key] = v.Key()
	}
	return refs, nil
}

// diffPerKey projects the sharded view per key and diffs each
// projection against its reference.
func diffPerKey(v *userview.Run, refs map[event.Key]string, cell *ShardCell) error {
	cell.Match = true
	for _, k := range v.Keys() {
		ref, ok := refs[k]
		if !ok {
			cell.Match = false
			cell.MismatchKey = k
			return fmt.Errorf("sharded run contains unexpected key %#x", uint64(k))
		}
		proj, err := v.ProjectKey(k)
		if err != nil {
			return fmt.Errorf("projecting key %#x: %w", uint64(k), err)
		}
		if proj.Key() != ref {
			cell.Match = false
			cell.MismatchKey = k
			return nil
		}
	}
	return nil
}

// ShardMatrix runs the per-key user-view equivalence sweep: for every
// protocol, a keyed lockstep workload executes once on the sharded sim
// and once on a sharded loopback TCP mesh, and every key's projection
// is diffed against an unsharded single-key reference run. A false
// Match is a real isolation failure — one domain's traffic changed
// another domain's ordering decisions.
func ShardMatrix(cfg ShardMatrixConfig, protos []NetProtocol) ([]ShardCell, error) {
	cfg = cfg.withDefaults()
	ncfg := cfg.net()
	var cells []ShardCell
	for _, p := range protos {
		msgs := ShardWorkload(ncfg, p.Colors, cfg.Keys)
		refs, err := shardRefs(p, ncfg, msgs)
		if err != nil {
			return nil, err
		}
		sharded := shard.New(p.Maker)

		simCell := ShardCell{Protocol: p.Name, Runtime: "sim", Keys: cfg.Keys}
		simView, simElapsed, err := runSimLockstep(sharded, ncfg.Procs, ncfg.Seed, msgs)
		if err != nil {
			return nil, fmt.Errorf("%s: sharded sim: %w", p.Name, err)
		}
		simCell.Elapsed = simElapsed
		if err := diffPerKey(simView, refs, &simCell); err != nil {
			return nil, fmt.Errorf("%s/sim: %w", p.Name, err)
		}
		cells = append(cells, simCell)

		o, err := runMatrixCell(ncfg, cellSpec{name: "sharded-" + p.Name, maker: sharded}, "sharded", [][]event.Message{msgs})
		if err != nil {
			return nil, fmt.Errorf("%s: sharded mesh: %w", p.Name, err)
		}
		meshCell := ShardCell{Protocol: p.Name, Runtime: "mesh", Keys: cfg.Keys, Elapsed: o.elapsed}
		if err := diffPerKey(o.domains[0].view, refs, &meshCell); err != nil {
			return nil, fmt.Errorf("%s/mesh: %w", p.Name, err)
		}
		cells = append(cells, meshCell)
	}
	return cells, nil
}
