// Package kweaker implements k-weaker FIFO ordering on each channel: a
// message may be overtaken by later sends on its channel, but never by a
// chain of more than k of them. Formally it implements the guarded
// k-weaker specification of Section 5 restricted to one channel,
//
//	forbidden x1 .. x_{k+2} (same channel) :
//	    x1.s -> x2.s && ... && x_{k+1}.s -> x_{k+2}.s && x_{k+2}.r -> x1.r
//
// whose predicate graph has a single cycle of order 1, so tagging
// suffices. Each wire carries a channel sequence number; the receiver
// delivers sequence n only once every sequence ≤ n-k-1 has been
// delivered. k = 0 degenerates to FIFO; k → ∞ degenerates to the tagless
// protocol.
package kweaker

import (
	"encoding/binary"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
)

// Process is one k-weaker protocol instance.
type Process struct {
	env protocol.Env
	k   uint64
	// Sender side: next sequence per destination (sequences start at 1).
	nextSeq map[event.ProcID]uint64
	// Receiver side, per source.
	in   map[event.ProcID]*inbound
	snap snapio.Writer // Snapshot's encoding, reused (protocol.Snapshotter)
}

type inbound struct {
	delivered  map[uint64]bool
	contiguous uint64 // highest c with 1..c all delivered
	held       []heldMsg
}

type heldMsg struct {
	id  event.MsgID
	seq uint64
}

var (
	_ protocol.Process   = (*Process)(nil)
	_ protocol.Describer = (*Process)(nil)
)

// Maker builds k-weaker instances with the given slack k.
func Maker(k int) protocol.Maker {
	if k < 0 {
		k = 0
	}
	return func() protocol.Process { return &Process{k: uint64(k)} }
}

// Describe declares the tagged capability class.
func (p *Process) Describe() protocol.Descriptor {
	return protocol.Descriptor{Name: "kweaker", Class: protocol.Tagged}
}

// Init prepares per-channel state.
func (p *Process) Init(env protocol.Env) {
	p.env = env
	p.nextSeq = make(map[event.ProcID]uint64)
	p.in = make(map[event.ProcID]*inbound)
}

// OnInvoke stamps the channel sequence and sends immediately.
func (p *Process) OnInvoke(m event.Message) {
	seq := p.nextSeq[m.To] + 1
	p.nextSeq[m.To] = seq
	p.env.Send(protocol.Wire{
		To:    m.To,
		Kind:  protocol.UserWire,
		Msg:   m.ID,
		Color: m.Color,
		Tag:   binary.AppendUvarint(nil, seq),
	})
}

// OnReceive buffers and delivers everything within the slack window.
func (p *Process) OnReceive(w protocol.Wire) {
	if w.Kind != protocol.UserWire {
		return
	}
	seq, n := binary.Uvarint(w.Tag)
	if n <= 0 {
		return
	}
	ib := p.in[w.From]
	if ib == nil {
		ib = &inbound{delivered: make(map[uint64]bool)}
		p.in[w.From] = ib
	}
	ib.held = append(ib.held, heldMsg{id: w.Msg, seq: seq})
	p.drain(ib)
}

// eligible: sequence n may be delivered once every sequence ≤ n-k-1 has
// been delivered, i.e. the contiguous prefix reaches n-k-1.
func (p *Process) eligible(ib *inbound, h heldMsg) bool {
	if h.seq <= p.k+1 {
		return true // nothing old enough to wait for
	}
	return ib.contiguous >= h.seq-p.k-1
}

func (p *Process) drain(ib *inbound) {
	for {
		progress := false
		for i := 0; i < len(ib.held); i++ {
			h := ib.held[i]
			if !p.eligible(ib, h) {
				continue
			}
			ib.held = append(ib.held[:i], ib.held[i+1:]...)
			// Commit state before delivering (Deliver may reenter).
			ib.delivered[h.seq] = true
			for ib.delivered[ib.contiguous+1] {
				ib.contiguous++
			}
			p.env.Deliver(h.id)
			progress = true
			break
		}
		if !progress {
			return
		}
	}
}
