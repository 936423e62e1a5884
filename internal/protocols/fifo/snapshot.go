package fifo

import (
	"slices"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
)

var _ protocol.Snapshotter = (*Process)(nil)

// Snapshot encodes the per-channel sequencing state deterministically
// (map keys are sorted; held buffers are keyed, so order is not state).
func (p *Process) Snapshot() []byte {
	var w snapio.Writer
	writeSeqMap(&w, p.nextSend)
	writeSeqMap(&w, p.nextDeliver)
	w.Int(len(p.held))
	for _, src := range sortedProcs(p.held) {
		hm := p.held[src]
		w.Int(int(src))
		w.Int(len(hm))
		seqs := make([]uint64, 0, len(hm))
		for seq := range hm {
			seqs = append(seqs, seq)
		}
		slices.Sort(seqs)
		for _, seq := range seqs {
			w.U64(seq)
			w.Int(int(hm[seq]))
		}
	}
	return w.Out()
}

// Restore rebuilds the state onto a freshly Init'd instance.
func (p *Process) Restore(b []byte) error {
	r := snapio.NewReader(b)
	nextSend := readSeqMap(r)
	nextDeliver := readSeqMap(r)
	held := make(map[event.ProcID]map[uint64]event.MsgID)
	for i, n := 0, r.Int(); i < n; i++ {
		src := event.ProcID(r.Int())
		hm := make(map[uint64]event.MsgID)
		for j, k := 0, r.Int(); j < k; j++ {
			seq := r.U64()
			hm[seq] = event.MsgID(r.Int())
		}
		held[src] = hm
	}
	if err := r.Close(); err != nil {
		return err
	}
	p.nextSend, p.nextDeliver, p.held = nextSend, nextDeliver, held
	return nil
}

// writeSeqMap encodes a proc→sequence map in ascending key order.
func writeSeqMap(w *snapio.Writer, m map[event.ProcID]uint64) {
	w.Int(len(m))
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, int(k))
	}
	slices.Sort(keys)
	for _, k := range keys {
		w.Int(k)
		w.U64(m[event.ProcID(k)])
	}
}

func readSeqMap(r *snapio.Reader) map[event.ProcID]uint64 {
	m := make(map[event.ProcID]uint64)
	for i, n := 0, r.Int(); i < n; i++ {
		k := event.ProcID(r.Int())
		m[k] = r.U64()
	}
	return m
}

// sortedProcs returns m's keys in ascending order.
func sortedProcs[V any](m map[event.ProcID]V) []event.ProcID {
	keys := make([]event.ProcID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
