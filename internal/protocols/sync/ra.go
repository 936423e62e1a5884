package sync

import (
	"encoding/binary"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
	"msgorder/internal/vc"
)

// RA is the decentralized member of the general class: logically
// synchronous ordering via Ricart–Agrawala mutual exclusion on a virtual
// global send-lock. To emit a message a process acquires the lock
// (2(n-1) control messages), transmits, and releases after the receiver's
// delivery acknowledgement — so message windows are disjoint in real time
// and the run admits the SYNC numbering.
//
// Compared with the sequencer (3 control messages per user message,
// central bottleneck), RA pays 2(n-1)+1 but spreads the load: the
// centralized-vs-decentralized ablation of DESIGN.md. The paper's
// Theorem 4.2 says both MUST send control messages; neither can be
// replaced by tagging.
type RA struct {
	env   protocol.Env
	clock vc.Lamport

	queue      []event.Message // invoked, not yet transmitted
	requesting bool
	reqTS      uint64
	replies    int
	deferred   []event.ProcID
	snap       snapio.Writer // Snapshot's encoding, reused (protocol.Snapshotter)
}

// Control message types (disjoint from the sequencer's).
const (
	ctrlRARequest uint8 = iota + 10
	ctrlRAReply
	ctrlRAAck
)

var (
	_ protocol.Process   = (*RA)(nil)
	_ protocol.Describer = (*RA)(nil)
)

// RAMaker builds Ricart–Agrawala sync instances.
func RAMaker() protocol.Process { return &RA{} }

// Describe declares the general capability class.
func (p *RA) Describe() protocol.Descriptor {
	return protocol.Descriptor{Name: "sync-ra", Class: protocol.General}
}

// Init stores the environment.
func (p *RA) Init(env protocol.Env) { p.env = env }

// OnInvoke queues the message and starts acquiring the send-lock.
func (p *RA) OnInvoke(m event.Message) {
	p.queue = append(p.queue, m)
	p.tryRequest()
}

func (p *RA) tryRequest() {
	if p.requesting || len(p.queue) == 0 {
		return
	}
	p.requesting = true
	p.reqTS = p.clock.Tick()
	p.replies = 0
	n := p.env.NumProcs()
	if n == 1 {
		p.enterCS()
		return
	}
	tag := binary.AppendUvarint(nil, p.reqTS)
	for j := 0; j < n; j++ {
		if event.ProcID(j) == p.env.Self() {
			continue
		}
		p.env.Send(protocol.Wire{
			To:   event.ProcID(j),
			Kind: protocol.ControlWire,
			Ctrl: ctrlRARequest,
			Tag:  tag,
		})
	}
}

// enterCS transmits the head of the queue; the lock is released by the
// receiver's acknowledgement.
func (p *RA) enterCS() {
	m := p.queue[0]
	p.queue = p.queue[1:]
	p.env.Send(protocol.Wire{
		To:    m.To,
		Kind:  protocol.UserWire,
		Msg:   m.ID,
		Color: m.Color,
	})
}

// OnReceive handles user deliveries and the three control types.
func (p *RA) OnReceive(w protocol.Wire) {
	switch w.Kind {
	case protocol.UserWire:
		p.env.Deliver(w.Msg)
		p.env.Send(protocol.Wire{
			To:   w.From,
			Kind: protocol.ControlWire,
			Ctrl: ctrlRAAck,
		})
	case protocol.ControlWire:
		p.onControl(w)
	}
}

func (p *RA) onControl(w protocol.Wire) {
	switch w.Ctrl {
	case ctrlRARequest:
		ts, n := binary.Uvarint(w.Tag)
		if n <= 0 {
			return
		}
		p.clock.Observe(ts)
		if p.requesting && before(p.reqTS, p.env.Self(), ts, w.From) {
			// Our claim has priority: answer after we release.
			p.deferred = append(p.deferred, w.From)
			return
		}
		p.reply(w.From)
	case ctrlRAReply:
		if !p.requesting {
			return
		}
		p.replies++
		if p.replies == p.env.NumProcs()-1 {
			p.enterCS()
		}
	case ctrlRAAck:
		// Lock released: answer deferred claimants, move to the next
		// queued message.
		p.requesting = false
		for _, j := range p.deferred {
			p.reply(j)
		}
		p.deferred = p.deferred[:0]
		p.tryRequest()
	}
}

func (p *RA) reply(to event.ProcID) {
	p.env.Send(protocol.Wire{
		To:   to,
		Kind: protocol.ControlWire,
		Ctrl: ctrlRAReply,
	})
}

// before reports whether claim (ts1, p1) has priority over (ts2, p2):
// lower timestamp wins, process id breaks ties.
func before(ts1 uint64, p1 event.ProcID, ts2 uint64, p2 event.ProcID) bool {
	if ts1 != ts2 {
		return ts1 < ts2
	}
	return p1 < p2
}
