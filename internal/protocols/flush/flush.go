// Package flush implements F-channels [1]: per-channel flush primitives
// that weaken or strengthen FIFO per message. Each send names a flush
// kind:
//
//	Ordinary      — constrained only by barriers,
//	ForwardFlush  — delivered after every earlier send on the channel,
//	BackwardFlush — a barrier: every later send is delivered after it,
//	TwoWayFlush   — both.
//
// The predicate-graph analysis (Section 2, Section 4.1) shows all four
// are tagged-implementable; each user wire carries a channel sequence
// number, its flush kind, and the sequence number of the latest preceding
// barrier.
package flush

import (
	"encoding/binary"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
)

// Kind selects the flush behaviour of one send.
type Kind uint8

// Flush kinds.
const (
	Ordinary Kind = iota + 1
	ForwardFlush
	BackwardFlush
	TwoWayFlush
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Ordinary:
		return "ordinary"
	case ForwardFlush:
		return "forward-flush"
	case BackwardFlush:
		return "backward-flush"
	case TwoWayFlush:
		return "two-way-flush"
	default:
		return "kind(?)"
	}
}

// waitsForAllEarlier reports whether the kind must trail every earlier
// send on its channel.
func (k Kind) waitsForAllEarlier() bool {
	return k == ForwardFlush || k == TwoWayFlush
}

// isBarrier reports whether later sends must trail this one.
func (k Kind) isBarrier() bool {
	return k == BackwardFlush || k == TwoWayFlush
}

// KindFor maps message colors to flush kinds so flush workloads can be
// expressed through the standard harness: red = forward flush, blue =
// backward flush, green = two-way flush, uncolored = ordinary.
func KindFor(c event.Color) Kind {
	switch c {
	case event.ColorRed:
		return ForwardFlush
	case event.ColorBlue:
		return BackwardFlush
	case event.ColorGreen:
		return TwoWayFlush
	default:
		return Ordinary
	}
}

// Process is one flush-channel protocol instance.
type Process struct {
	env protocol.Env
	// Sender side, per destination.
	nextSeq     map[event.ProcID]uint64
	lastBarrier map[event.ProcID]uint64 // 0 = none
	// Receiver side, per source.
	in   map[event.ProcID]*inbound
	snap snapio.Writer // Snapshot's encoding, reused (protocol.Snapshotter)
}

type inbound struct {
	delivered map[uint64]bool
	// contiguous is the highest c with 1..c all delivered.
	contiguous uint64
	held       []heldMsg
}

type heldMsg struct {
	id      event.MsgID
	seq     uint64
	barrier uint64
	kind    Kind
}

var (
	_ protocol.Process   = (*Process)(nil)
	_ protocol.Describer = (*Process)(nil)
)

// Maker builds flush protocol instances.
func Maker() protocol.Process { return &Process{} }

// Describe declares the tagged capability class.
func (p *Process) Describe() protocol.Descriptor {
	return protocol.Descriptor{Name: "flush", Class: protocol.Tagged}
}

// Init prepares per-channel state.
func (p *Process) Init(env protocol.Env) {
	p.env = env
	p.nextSeq = make(map[event.ProcID]uint64)
	p.lastBarrier = make(map[event.ProcID]uint64)
	p.in = make(map[event.ProcID]*inbound)
}

// OnInvoke stamps (seq, barrier, kind) and sends immediately. The kind is
// derived from the message color via KindFor.
func (p *Process) OnInvoke(m event.Message) {
	kind := KindFor(m.Color)
	seq := p.nextSeq[m.To] + 1 // sequences start at 1; barrier 0 = none
	p.nextSeq[m.To] = seq
	barrier := p.lastBarrier[m.To]
	if kind.isBarrier() {
		p.lastBarrier[m.To] = seq
	}
	tag := binary.AppendUvarint(nil, seq)
	tag = binary.AppendUvarint(tag, barrier)
	tag = append(tag, byte(kind))
	p.env.Send(protocol.Wire{
		To:    m.To,
		Kind:  protocol.UserWire,
		Msg:   m.ID,
		Color: m.Color,
		Tag:   tag,
	})
}

// OnReceive buffers the message and delivers everything eligible.
func (p *Process) OnReceive(w protocol.Wire) {
	if w.Kind != protocol.UserWire {
		return
	}
	seq, n := binary.Uvarint(w.Tag)
	if n <= 0 {
		return
	}
	rest := w.Tag[n:]
	barrier, n2 := binary.Uvarint(rest)
	if n2 <= 0 || len(rest[n2:]) != 1 {
		return
	}
	kind := Kind(rest[n2])
	ib := p.in[w.From]
	if ib == nil {
		ib = &inbound{delivered: make(map[uint64]bool)}
		p.in[w.From] = ib
	}
	ib.held = append(ib.held, heldMsg{id: w.Msg, seq: seq, barrier: barrier, kind: kind})
	p.drain(ib)
}

// eligible applies the flush delivery conditions.
func (ib *inbound) eligible(h heldMsg) bool {
	if h.kind.waitsForAllEarlier() && ib.contiguous < h.seq-1 {
		return false
	}
	if h.barrier != 0 && !ib.delivered[h.barrier] {
		return false
	}
	return true
}

func (p *Process) drain(ib *inbound) {
	for {
		progress := false
		for i := 0; i < len(ib.held); i++ {
			h := ib.held[i]
			if !ib.eligible(h) {
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
