package causal

import (
	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
	"msgorder/internal/vc"
)

// BSS is the Birman–Schiper–Stephenson causal broadcast protocol — the
// multicast extension the paper's conclusion anticipates, and the
// third cited causal witness [4]. Every broadcast carries a single
// vector timestamp of length n (versus RST's n×n matrix): entry k is the
// number of broadcasts by process k delivered at the sender before this
// one. A receiver delivers a copy from i when it is i's next broadcast
// and every broadcast the sender had delivered first has been delivered
// here too.
//
// BSS orders broadcasts only: it must be driven by broadcast workloads
// (Request.Broadcast). A stray unicast is forwarded with an untagged
// marker and delivered on receipt, preserving liveness but not ordered
// against broadcasts.
type BSS struct {
	env protocol.Env
	// vcDel[k] = broadcasts by process k delivered here. The own entry
	// counts this process's broadcasts (delivered locally by fiat).
	vcDel vc.Vector
	held  []heldBSS
	snap  snapio.Writer // Snapshot's encoding, reused (protocol.Snapshotter)
}

type heldBSS struct {
	id   event.MsgID
	from event.ProcID
	tag  vc.Vector
}

// bssKind prefixes the wire tag.
const (
	bssPlain byte = iota + 1 // untagged unicast fallback
	bssCast                  // broadcast copy, vector follows
)

var (
	_ protocol.Process     = (*BSS)(nil)
	_ protocol.Describer   = (*BSS)(nil)
	_ protocol.Broadcaster = (*BSS)(nil)
)

// BSSMaker builds BSS instances.
func BSSMaker() protocol.Process { return &BSS{} }

// Describe declares the tagged capability class.
func (p *BSS) Describe() protocol.Descriptor {
	return protocol.Descriptor{Name: "causal-bss", Class: protocol.Tagged}
}

// Init allocates the delivery vector.
func (p *BSS) Init(env protocol.Env) {
	p.env = env
	p.vcDel = vc.NewVector(env.NumProcs())
}

// OnBroadcast stamps every copy with one vector timestamp.
func (p *BSS) OnBroadcast(msgs []event.Message) {
	self := int(p.env.Self())
	tag := append([]byte{bssCast}, p.vcDel.Encode()...)
	p.vcDel.Tick(self) // our own broadcast counts as delivered locally
	for _, m := range msgs {
		p.env.Send(protocol.Wire{
			To:    m.To,
			Kind:  protocol.UserWire,
			Msg:   m.ID,
			Color: m.Color,
			Tag:   tag,
		})
	}
}

// OnInvoke handles stray unicasts with a liveness-preserving fallback.
func (p *BSS) OnInvoke(m event.Message) {
	p.env.Send(protocol.Wire{
		To:    m.To,
		Kind:  protocol.UserWire,
		Msg:   m.ID,
		Color: m.Color,
		Tag:   []byte{bssPlain},
	})
}

// OnReceive applies the BSS delivery condition to broadcast copies.
func (p *BSS) OnReceive(w protocol.Wire) {
	if w.Kind != protocol.UserWire || len(w.Tag) == 0 {
		return
	}
	switch w.Tag[0] {
	case bssPlain:
		p.env.Deliver(w.Msg)
	case bssCast:
		tag, err := vc.DecodeVector(w.Tag[1:])
		if err != nil {
			return // malformed: drop; liveness check flags it
		}
		p.held = append(p.held, heldBSS{id: w.Msg, from: w.From, tag: tag})
		p.drain()
	}
}

// deliverable: next broadcast from its sender, and the sender's causal
// past of broadcasts is already delivered here.
func (p *BSS) deliverable(h heldBSS) bool {
	from := int(h.from)
	if from >= len(p.vcDel) || len(h.tag) != len(p.vcDel) {
		return false
	}
	if h.tag[from] != p.vcDel[from] {
		return false
	}
	for k := range p.vcDel {
		if k == from {
			continue
		}
		if h.tag[k] > p.vcDel[k] {
			return false
		}
	}
	return true
}

func (p *BSS) drain() {
	for {
		progress := false
		for i := 0; i < len(p.held); i++ {
			h := p.held[i]
			if !p.deliverable(h) {
				continue
			}
			p.held = append(p.held[:i], p.held[i+1:]...)
			// Commit state before delivering (Deliver may reenter).
			p.vcDel.Tick(int(h.from))
			p.env.Deliver(h.id)
			progress = true
			break
		}
		if !progress {
			return
		}
	}
}
