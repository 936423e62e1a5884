// Package sync implements a logically synchronous ordering protocol — the
// general-class witness of Theorem 1.1. The paper proves no tagged
// protocol can implement X_sync; this one uses explicit control messages:
//
//	sender  --REQ-->  sequencer          (request a global slot)
//	sender  <--GO--   sequencer          (slot granted, exclusively)
//	sender  --user message--> receiver   (delivered on receipt)
//	receiver --DONE--> sequencer         (slot released)
//
// Process 0 acts as sequencer. At most one user message is in flight at
// any instant, so every message occupies an exclusive global window and
// the user view admits the vertical-arrow numbering T of the SYNC
// definition: each message costs three control wires.
//
// This is deliberately the simplest member of the class; decentralized
// algorithms (Bagrodia's binary rendezvous, CSP guard implementations)
// trade the central sequencer for more intricate control traffic, but by
// Theorem 4.2 every one of them must send control messages.
package sync

import (
	"encoding/binary"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
)

// Control message types.
const (
	ctrlReq  uint8 = iota + 1 // sender -> sequencer: please grant msg
	ctrlGo                    // sequencer -> sender: slot granted
	ctrlDone                  // receiver -> sequencer: slot finished
)

// sequencerID is the process acting as the global sequencer.
const sequencerID event.ProcID = 0

// Process is one sync protocol instance.
type Process struct {
	env protocol.Env
	// Sender state: messages invoked but not yet granted.
	pending map[event.MsgID]event.Message
	// Sequencer state (only used at process 0).
	queue []grant
	busy  bool
	snap  snapio.Writer // Snapshot's encoding, reused (protocol.Snapshotter)
	// tags is the arena control tags are carved from, each encoded in
	// tagBuf first.
	tags   protocol.TagArena
	tagBuf [binary.MaxVarintLen64]byte
}

type grant struct {
	sender event.ProcID
	msg    event.MsgID
}

var (
	_ protocol.Process   = (*Process)(nil)
	_ protocol.Describer = (*Process)(nil)
)

// Maker builds sync protocol instances.
func Maker() protocol.Process { return &Process{} }

// Describe declares the general capability class.
func (p *Process) Describe() protocol.Descriptor {
	return protocol.Descriptor{Name: "sync-sequencer", Class: protocol.General}
}

// Init prepares sender and sequencer state.
func (p *Process) Init(env protocol.Env) {
	p.env = env
	p.pending = make(map[event.MsgID]event.Message)
}

// OnInvoke buffers the message and requests a slot from the sequencer.
func (p *Process) OnInvoke(m event.Message) {
	p.pending[m.ID] = m
	p.env.Send(protocol.Wire{
		To:   sequencerID,
		Kind: protocol.ControlWire,
		Ctrl: ctrlReq,
		Tag:  p.tags.Copy(binary.AppendUvarint(p.tagBuf[:0], uint64(m.ID))),
	})
}

// OnReceive handles user deliveries and the three control types.
func (p *Process) OnReceive(w protocol.Wire) {
	switch w.Kind {
	case protocol.UserWire:
		p.env.Deliver(w.Msg)
		p.env.Send(protocol.Wire{
			To:   sequencerID,
			Kind: protocol.ControlWire,
			Ctrl: ctrlDone,
		})
	case protocol.ControlWire:
		p.onControl(w)
	}
}

func (p *Process) onControl(w protocol.Wire) {
	switch w.Ctrl {
	case ctrlReq:
		id, n := binary.Uvarint(w.Tag)
		if n <= 0 {
			return
		}
		p.queue = append(p.queue, grant{sender: w.From, msg: event.MsgID(id)})
		p.pump()
	case ctrlDone:
		p.busy = false
		p.pump()
	case ctrlGo:
		id, n := binary.Uvarint(w.Tag)
		if n <= 0 {
			return
		}
		m, ok := p.pending[event.MsgID(id)]
		if !ok {
			return
		}
		delete(p.pending, m.ID)
		p.env.Send(protocol.Wire{
			To:    m.To,
			Kind:  protocol.UserWire,
			Msg:   m.ID,
			Color: m.Color,
		})
	}
}

// pump grants the next queued slot when idle (sequencer only).
func (p *Process) pump() {
	if p.busy || len(p.queue) == 0 {
		return
	}
	g := p.queue[0]
	p.queue = p.queue[1:]
	p.busy = true
	p.env.Send(protocol.Wire{
		To:   g.sender,
		Kind: protocol.ControlWire,
		Ctrl: ctrlGo,
		Tag:  p.tags.Copy(binary.AppendUvarint(p.tagBuf[:0], uint64(g.msg))),
	})
}
