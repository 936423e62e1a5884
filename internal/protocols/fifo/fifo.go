// Package fifo implements FIFO channel ordering with per-channel sequence
// numbers — the classic tagged protocol for the specification
//
//	forbidden x, y : process(x.s) == process(y.s) &&
//	                 process(x.r) == process(y.r) :
//	                 x.s -> y.s && y.r -> x.r
//
// Each user wire carries an 8-byte-max varint sequence number for its
// (sender, receiver) channel; the receiver buffers out-of-order arrivals
// and delivers in sequence.
package fifo

import (
	"encoding/binary"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
)

// Process is one FIFO protocol instance.
type Process struct {
	env protocol.Env
	// nextSend[dst] is the sequence number for the next message to dst.
	nextSend map[event.ProcID]uint64
	// nextDeliver[src] is the sequence expected next from src.
	nextDeliver map[event.ProcID]uint64
	// held buffers out-of-order messages: held[src][seq] = message id.
	held map[event.ProcID]map[uint64]event.MsgID

	// tags is the arena OnInvoke carves sequence-number tags from, each
	// encoded in tagBuf first; the arena's small first chunk keeps the
	// many instances of a sharded process small.
	tags   protocol.TagArena
	tagBuf [binary.MaxVarintLen64]byte

	// snap, procs and seqs are Snapshot's encoding and sort scratch,
	// kept for the next one (protocol.Snapshotter: the returned bytes
	// belong to the instance), so a warm snapshot allocates nothing.
	snap  snapio.Writer
	procs []event.ProcID
	seqs  []uint64
}

var (
	_ protocol.Process   = (*Process)(nil)
	_ protocol.Describer = (*Process)(nil)
)

// Maker builds FIFO protocol instances.
func Maker() protocol.Process { return &Process{} }

// Describe declares the tagged capability class.
func (p *Process) Describe() protocol.Descriptor {
	return protocol.Descriptor{Name: "fifo", Class: protocol.Tagged}
}

// Init prepares per-channel state.
func (p *Process) Init(env protocol.Env) {
	p.env = env
	p.nextSend = make(map[event.ProcID]uint64)
	p.nextDeliver = make(map[event.ProcID]uint64)
	p.held = make(map[event.ProcID]map[uint64]event.MsgID)
}

// OnInvoke stamps the channel sequence number and sends immediately.
func (p *Process) OnInvoke(m event.Message) {
	seq := p.nextSend[m.To]
	p.nextSend[m.To] = seq + 1
	p.env.Send(protocol.Wire{
		To:    m.To,
		Kind:  protocol.UserWire,
		Msg:   m.ID,
		Color: m.Color,
		Tag:   p.tags.Copy(binary.AppendUvarint(p.tagBuf[:0], seq)),
	})
}

// OnReceive delivers in-sequence messages and buffers the rest.
func (p *Process) OnReceive(w protocol.Wire) {
	if w.Kind != protocol.UserWire {
		return
	}
	seq, n := binary.Uvarint(w.Tag)
	if n <= 0 {
		return // malformed tag: drop (the simulator's liveness check flags it)
	}
	src := w.From
	if seq != p.nextDeliver[src] {
		hm := p.held[src]
		if hm == nil {
			hm = make(map[uint64]event.MsgID)
			p.held[src] = hm
		}
		hm[seq] = w.Msg
		return
	}
	// Commit sequencing state before delivering (Deliver may reenter).
	p.nextDeliver[src] = seq + 1
	p.env.Deliver(w.Msg)
	// Drain any buffered successors.
	for {
		next := p.nextDeliver[src]
		id, ok := p.held[src][next]
		if !ok {
			return
		}
		delete(p.held[src], next)
		p.nextDeliver[src] = next + 1
		p.env.Deliver(id)
	}
}
