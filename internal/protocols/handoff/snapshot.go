package handoff

import (
	"sort"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
)

var _ protocol.Snapshotter = (*Process)(nil)

// appendMsg encodes one queued user message.
func appendMsg(w *snapio.Writer, m event.Message) {
	w.Int(int(m.ID))
	w.Int(int(m.From))
	w.Int(int(m.To))
	w.Int(int(m.Color))
	w.U64(uint64(m.Key))
}

// readMsg decodes one queued user message.
func readMsg(r *snapio.Reader) event.Message {
	return event.Message{
		ID:    event.MsgID(r.Int()),
		From:  event.ProcID(r.Int()),
		To:    event.ProcID(r.Int()),
		Color: event.Color(r.Int()),
		Key:   event.Key(r.U64()),
	}
}

// Snapshot encodes the full ordering state: send/receive tallies, the
// freeze window count, held invokes, the mobile handoff machine, the
// responder drain slot and the coordinator lock. Map traversals are
// sorted, so equal states encode to equal bytes.
func (p *Process) Snapshot() []byte {
	w := &p.snap
	w.Reset()
	w.Int(len(p.sent))
	for _, s := range p.sent {
		w.U64(s)
	}
	w.U64(p.recvd)
	w.Int(p.freezes)
	w.Int(len(p.holdQ))
	for _, m := range p.holdQ {
		appendMsg(w, m)
	}
	w.Byte(p.phase)
	w.Int(len(p.reds))
	for _, m := range p.reds {
		appendMsg(w, m)
	}
	procs := make([]int, 0, len(p.frozen))
	for q := range p.frozen {
		procs = append(procs, int(q))
	}
	sort.Ints(procs)
	w.Int(len(procs))
	for _, q := range procs {
		w.Int(q)
		vec := p.frozen[event.ProcID(q)]
		w.Int(len(vec))
		for _, v := range vec {
			w.U64(v)
		}
	}
	procs = procs[:0]
	for q := range p.drained {
		procs = append(procs, int(q))
	}
	sort.Ints(procs)
	w.Int(len(procs))
	for _, q := range procs {
		w.Int(q)
	}
	w.U64(p.selfDrainWant)
	w.Bool(p.selfDrainPend)
	w.Int(int(p.drainFrom))
	w.Int(int(p.drainRed))
	w.U64(p.drainWant)
	w.Bool(p.drainPend)
	w.Int(len(p.lockQ))
	for _, q := range p.lockQ {
		w.Int(int(q))
	}
	w.Bool(p.lockBusy)
	return w.Out()
}

// Restore rebuilds the state onto a freshly Init'd instance.
func (p *Process) Restore(b []byte) error {
	r := snapio.NewReader(b)
	sent := make([]uint64, r.Int())
	for i := range sent {
		sent[i] = r.U64()
	}
	recvd := r.U64()
	freezes := r.Int()
	var holdQ []event.Message
	for i, n := 0, r.Int(); i < n; i++ {
		holdQ = append(holdQ, readMsg(r))
	}
	phase := r.Byte()
	var reds []event.Message
	for i, n := 0, r.Int(); i < n; i++ {
		reds = append(reds, readMsg(r))
	}
	var frozen map[event.ProcID][]uint64
	if n := r.Int(); n > 0 || phase == phaseFreeze {
		frozen = make(map[event.ProcID][]uint64, n)
		for i := 0; i < n; i++ {
			q := event.ProcID(r.Int())
			vec := make([]uint64, r.Int())
			for j := range vec {
				vec[j] = r.U64()
			}
			frozen[q] = vec
		}
	}
	var drained map[event.ProcID]bool
	if n := r.Int(); n > 0 || phase == phaseDrain {
		drained = make(map[event.ProcID]bool, n)
		for i := 0; i < n; i++ {
			drained[event.ProcID(r.Int())] = true
		}
	}
	selfDrainWant := r.U64()
	selfDrainPend := r.Bool()
	drainFrom := event.ProcID(r.Int())
	drainRed := event.MsgID(r.Int())
	drainWant := r.U64()
	drainPend := r.Bool()
	var lockQ []event.ProcID
	for i, n := 0, r.Int(); i < n; i++ {
		lockQ = append(lockQ, event.ProcID(r.Int()))
	}
	lockBusy := r.Bool()
	if err := r.Close(); err != nil {
		return err
	}
	p.sent, p.recvd, p.freezes, p.holdQ = sent, recvd, freezes, holdQ
	p.phase, p.reds, p.frozen, p.drained = phase, reds, frozen, drained
	p.selfDrainWant, p.selfDrainPend = selfDrainWant, selfDrainPend
	p.drainFrom, p.drainRed, p.drainWant, p.drainPend = drainFrom, drainRed, drainWant, drainPend
	p.lockQ, p.lockBusy = lockQ, lockBusy
	return nil
}
