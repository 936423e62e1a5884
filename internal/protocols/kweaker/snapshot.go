package kweaker

import (
	"sort"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
)

var _ protocol.Snapshotter = (*Process)(nil)

// Snapshot encodes the sequencing and inbound state deterministically.
// The slack k is configuration, not state, and is not snapshotted. Held
// buffers are encoded in arrival order — the drain scan is
// order-sensitive, so order IS state.
func (p *Process) Snapshot() []byte {
	w := &p.snap
	w.Reset()
	w.Int(len(p.nextSeq))
	for _, dst := range sortedKeys(p.nextSeq) {
		w.Int(int(dst))
		w.U64(p.nextSeq[dst])
	}
	w.Int(len(p.in))
	for _, src := range sortedKeys(p.in) {
		ib := p.in[src]
		w.Int(int(src))
		w.U64(ib.contiguous)
		w.Int(len(ib.delivered))
		seqs := make([]uint64, 0, len(ib.delivered))
		for s := range ib.delivered {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, s := range seqs {
			w.U64(s)
		}
		w.Int(len(ib.held))
		for _, h := range ib.held {
			w.Int(int(h.id))
			w.U64(h.seq)
		}
	}
	return w.Out()
}

// Restore rebuilds the state onto a freshly Init'd instance.
func (p *Process) Restore(b []byte) error {
	r := snapio.NewReader(b)
	nextSeq := make(map[event.ProcID]uint64)
	for i, n := 0, r.Int(); i < n; i++ {
		dst := event.ProcID(r.Int())
		nextSeq[dst] = r.U64()
	}
	in := make(map[event.ProcID]*inbound)
	for i, n := 0, r.Int(); i < n; i++ {
		src := event.ProcID(r.Int())
		ib := &inbound{delivered: make(map[uint64]bool), contiguous: r.U64()}
		for j, k := 0, r.Int(); j < k; j++ {
			ib.delivered[r.U64()] = true
		}
		for j, k := 0, r.Int(); j < k; j++ {
			h := heldMsg{id: event.MsgID(r.Int()), seq: r.U64()}
			ib.held = append(ib.held, h)
		}
		in[src] = ib
	}
	if err := r.Close(); err != nil {
		return err
	}
	p.nextSeq, p.in = nextSeq, in
	return nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[event.ProcID]V) []event.ProcID {
	keys := make([]event.ProcID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
