package sync

import (
	"sort"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
)

var (
	_ protocol.Snapshotter = (*Process)(nil)
	_ protocol.Snapshotter = (*RA)(nil)
)

// Snapshot encodes the sender's pending table and the sequencer's grant
// queue. The queue is FIFO, so its order is state; the pending map is
// keyed and encoded sorted.
func (p *Process) Snapshot() []byte {
	w := &p.snap
	w.Reset()
	w.Int(len(p.pending))
	ids := make([]int, 0, len(p.pending))
	for id := range p.pending {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		m := p.pending[event.MsgID(id)]
		w.Int(int(m.ID))
		w.Int(int(m.From))
		w.Int(int(m.To))
		w.Int(int(m.Color))
	}
	w.Int(len(p.queue))
	for _, g := range p.queue {
		w.Int(int(g.sender))
		w.Int(int(g.msg))
	}
	w.Bool(p.busy)
	return w.Out()
}

// Restore rebuilds the state onto a freshly Init'd instance.
func (p *Process) Restore(b []byte) error {
	r := snapio.NewReader(b)
	pending := make(map[event.MsgID]event.Message)
	for i, n := 0, r.Int(); i < n; i++ {
		m := event.Message{
			ID:    event.MsgID(r.Int()),
			From:  event.ProcID(r.Int()),
			To:    event.ProcID(r.Int()),
			Color: event.Color(r.Int()),
		}
		pending[m.ID] = m
	}
	var queue []grant
	for i, n := 0, r.Int(); i < n; i++ {
		g := grant{sender: event.ProcID(r.Int()), msg: event.MsgID(r.Int())}
		queue = append(queue, g)
	}
	busy := r.Bool()
	if err := r.Close(); err != nil {
		return err
	}
	p.pending, p.queue, p.busy = pending, queue, busy
	return nil
}

// Snapshot encodes the Lamport clock, the FIFO send queue and the
// lock-acquisition state.
func (p *RA) Snapshot() []byte {
	w := &p.snap
	w.Reset()
	w.U64(p.clock.Time())
	w.Int(len(p.queue))
	for _, m := range p.queue {
		w.Int(int(m.ID))
		w.Int(int(m.From))
		w.Int(int(m.To))
		w.Int(int(m.Color))
	}
	w.Bool(p.requesting)
	w.U64(p.reqTS)
	w.Int(p.replies)
	w.Int(len(p.deferred))
	for _, j := range p.deferred {
		w.Int(int(j))
	}
	return w.Out()
}

// Restore rebuilds the state onto a freshly Init'd instance.
func (p *RA) Restore(b []byte) error {
	r := snapio.NewReader(b)
	clockT := r.U64()
	var queue []event.Message
	for i, n := 0, r.Int(); i < n; i++ {
		queue = append(queue, event.Message{
			ID:    event.MsgID(r.Int()),
			From:  event.ProcID(r.Int()),
			To:    event.ProcID(r.Int()),
			Color: event.Color(r.Int()),
		})
	}
	requesting := r.Bool()
	reqTS := r.U64()
	replies := r.Int()
	var deferred []event.ProcID
	for i, n := 0, r.Int(); i < n; i++ {
		deferred = append(deferred, event.ProcID(r.Int()))
	}
	if err := r.Close(); err != nil {
		return err
	}
	p.clock.Set(clockT)
	p.queue, p.requesting, p.reqTS, p.replies, p.deferred = queue, requesting, reqTS, replies, deferred
	return nil
}
