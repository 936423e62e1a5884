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
	w := &p.snap
	w.Reset()
	p.writeSeqMap(p.nextSend)
	p.writeSeqMap(p.nextDeliver)
	p.procs = sortedProcs(p.procs[:0], p.held)
	w.Int(len(p.procs))
	for _, src := range p.procs {
		hm := p.held[src]
		w.Int(int(src))
		w.Int(len(hm))
		p.seqs = p.seqs[:0]
		for seq := range hm {
			p.seqs = append(p.seqs, seq)
		}
		slices.Sort(p.seqs)
		for _, seq := range p.seqs {
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
func (p *Process) writeSeqMap(m map[event.ProcID]uint64) {
	p.procs = sortedProcs(p.procs[:0], m)
	p.snap.Int(len(p.procs))
	for _, k := range p.procs {
		p.snap.Int(int(k))
		p.snap.U64(m[k])
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

// sortedProcs appends m's keys to dst and sorts the result.
func sortedProcs[V any](dst []event.ProcID, m map[event.ProcID]V) []event.ProcID {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}
