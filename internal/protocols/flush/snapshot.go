package flush

import (
	"sort"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
)

var _ protocol.Snapshotter = (*Process)(nil)

// Snapshot encodes the sequencing and inbound state deterministically.
// Held buffers are encoded in arrival order — the drain scan is
// order-sensitive, so order IS state.
func (p *Process) Snapshot() []byte {
	w := &p.snap
	w.Reset()
	writeProcSeqs(w, p.nextSeq)
	writeProcSeqs(w, p.lastBarrier)
	w.Int(len(p.in))
	for _, src := range sortedProcKeys(p.in) {
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
			w.U64(h.barrier)
			w.Byte(byte(h.kind))
		}
	}
	return w.Out()
}

// Restore rebuilds the state onto a freshly Init'd instance.
func (p *Process) Restore(b []byte) error {
	r := snapio.NewReader(b)
	nextSeq := readProcSeqs(r)
	lastBarrier := readProcSeqs(r)
	in := make(map[event.ProcID]*inbound)
	for i, n := 0, r.Int(); i < n; i++ {
		src := event.ProcID(r.Int())
		ib := &inbound{delivered: make(map[uint64]bool), contiguous: r.U64()}
		for j, k := 0, r.Int(); j < k; j++ {
			ib.delivered[r.U64()] = true
		}
		for j, k := 0, r.Int(); j < k; j++ {
			h := heldMsg{id: event.MsgID(r.Int()), seq: r.U64(), barrier: r.U64(), kind: Kind(r.Byte())}
			ib.held = append(ib.held, h)
		}
		in[src] = ib
	}
	if err := r.Close(); err != nil {
		return err
	}
	p.nextSeq, p.lastBarrier, p.in = nextSeq, lastBarrier, in
	return nil
}

// writeProcSeqs encodes a proc→sequence map in ascending key order.
func writeProcSeqs(w *snapio.Writer, m map[event.ProcID]uint64) {
	w.Int(len(m))
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	for _, k := range keys {
		w.Int(k)
		w.U64(m[event.ProcID(k)])
	}
}

func readProcSeqs(r *snapio.Reader) map[event.ProcID]uint64 {
	m := make(map[event.ProcID]uint64)
	for i, n := 0, r.Int(); i < n; i++ {
		k := event.ProcID(r.Int())
		m[k] = r.U64()
	}
	return m
}

// sortedProcKeys returns m's keys in ascending order.
func sortedProcKeys[V any](m map[event.ProcID]V) []event.ProcID {
	keys := make([]event.ProcID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
