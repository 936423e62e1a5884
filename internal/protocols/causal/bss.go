package causal

import (
	"slices"

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
	// held buffers received-but-undeliverable copies; stamps.at(i) is
	// held[i]'s vector timestamp.
	held   []heldBSS
	stamps rows
	// tags is the arena OnBroadcast carves its tags from; enc is the
	// encoding OnBroadcast and Snapshot write first.
	tags protocol.TagArena
	enc  []byte
	snap snapio.Writer // Snapshot's encoding, reused (protocol.Snapshotter)
}

type heldBSS struct {
	id   event.MsgID
	from event.ProcID
	tag  []byte // the wire's encoded vector (after the kind byte), validated
}

// bssKind prefixes the wire tag.
const (
	bssPlain byte = iota + 1 // untagged unicast fallback
	bssCast                  // broadcast copy, vector follows
)

// plainTag is every stray unicast's tag, shared: tags are immutable.
var plainTag = []byte{bssPlain}

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
	p.stamps = rows{n: env.NumProcs()}
}

// OnBroadcast stamps every copy with one vector timestamp.
func (p *BSS) OnBroadcast(msgs []event.Message) {
	self := int(p.env.Self())
	p.enc = p.vcDel.AppendEncode(append(p.enc[:0], bssCast))
	tag := p.tags.Copy(p.enc)
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
		Tag:   plainTag,
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
		tag := w.Tag[1:]
		if !sender(w.From, len(p.vcDel)) || vc.Vector(p.stamps.spare()).MergeEncoded(tag) != nil {
			return // malformed or not of dimension n: drop; liveness check flags it
		}
		p.stamps.keep()
		p.held = append(p.held, heldBSS{id: w.Msg, from: w.From, tag: tag})
		p.drain()
	}
}

// deliverable: next broadcast from its sender, and the sender's causal
// past of broadcasts is already delivered here. ts is the copy's
// vector timestamp.
func (p *BSS) deliverable(from event.ProcID, ts []uint64) bool {
	if ts[from] != p.vcDel[from] {
		return false
	}
	for k, t := range ts {
		if k != int(from) && t > p.vcDel[k] {
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
			if !p.deliverable(h.from, p.stamps.at(i)) {
				continue
			}
			p.held = slices.Delete(p.held, i, i+1)
			p.stamps.remove(i)
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
