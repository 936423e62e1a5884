// Package causal implements the two tagged causal-ordering protocols the
// paper cites as witnesses that X_co needs only piggybacking:
//
//   - RST — the Raynal–Schiper–Toueg algorithm [20]: every user message
//     carries an n×n matrix clock M where M[j][k] is the sender's
//     knowledge of how many messages j has sent to k. Process i delivers
//     a message from j when it is the next one from j and every message
//     sent to i causally before it has been delivered.
//
//   - SES — the Schiper–Eggli–Sandoz algorithm [21]: every user message
//     carries a vector timestamp plus a set of (destination, vector)
//     pairs recording causally preceding sends. Tags are O(n) entries of
//     O(n) words in the worst case but far smaller in sparse traffic —
//     the tag-size ablation against RST's always-n² matrix.
//
// Both deliver the exact specification X_co; BenchmarkCausalVariants
// compares their overhead.
package causal

import (
	"encoding/binary"
	"sort"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
	"msgorder/internal/vc"
)

// --- RST ---

// RST is one Raynal–Schiper–Toueg protocol instance.
type RST struct {
	env protocol.Env
	m   *vc.Matrix
	del []uint64 // del[j] = messages from j delivered here
	// held buffers received-but-undeliverable messages.
	held []heldRST
	snap snapio.Writer // Snapshot's encoding, reused (protocol.Snapshotter)
}

type heldRST struct {
	id   event.MsgID
	from event.ProcID
	tag  *vc.Matrix
}

var (
	_ protocol.Process   = (*RST)(nil)
	_ protocol.Describer = (*RST)(nil)
)

// RSTMaker builds RST instances.
func RSTMaker() protocol.Process { return &RST{} }

// Describe declares the tagged capability class.
func (p *RST) Describe() protocol.Descriptor {
	return protocol.Descriptor{Name: "causal-rst", Class: protocol.Tagged}
}

// Init allocates the matrix clock.
func (p *RST) Init(env protocol.Env) {
	p.env = env
	n := env.NumProcs()
	p.m = vc.NewMatrix(n)
	p.del = make([]uint64, n)
}

// OnInvoke increments the sender's row and sends the matrix as the tag.
func (p *RST) OnInvoke(m event.Message) {
	p.m.Incr(int(p.env.Self()), int(m.To))
	p.env.Send(protocol.Wire{
		To:    m.To,
		Kind:  protocol.UserWire,
		Msg:   m.ID,
		Color: m.Color,
		Tag:   p.m.Encode(),
	})
}

// OnReceive applies the RST delivery condition, buffering when needed.
func (p *RST) OnReceive(w protocol.Wire) {
	if w.Kind != protocol.UserWire {
		return
	}
	tag, err := vc.DecodeMatrix(w.Tag)
	if err != nil {
		return // malformed tag: drop; the liveness check will flag it
	}
	p.held = append(p.held, heldRST{id: w.Msg, from: w.From, tag: tag})
	p.drain()
}

// deliverable: the message is the next from its sender, and every message
// sent to self causally before it has been delivered.
func (p *RST) deliverable(h heldRST) bool {
	self := int(p.env.Self())
	if h.tag.Get(int(h.from), self) != p.del[h.from]+1 {
		return false
	}
	for k := 0; k < p.env.NumProcs(); k++ {
		if k == int(h.from) {
			continue
		}
		if h.tag.Get(k, self) > p.del[k] {
			return false
		}
	}
	return true
}

func (p *RST) drain() {
	for {
		progress := false
		for i := 0; i < len(p.held); i++ {
			h := p.held[i]
			if !p.deliverable(h) {
				continue
			}
			p.held = append(p.held[:i], p.held[i+1:]...)
			// Commit state before delivering: Deliver may reenter (a
			// user hook can invoke follow-up messages synchronously),
			// and those must be tagged with this delivery's knowledge.
			p.del[h.from]++
			p.m.Merge(h.tag)
			p.env.Deliver(h.id)
			progress = true
			break
		}
		if !progress {
			return
		}
	}
}

// --- SES ---

// SES is one Schiper–Eggli–Sandoz protocol instance.
type SES struct {
	env protocol.Env
	v   vc.Vector
	// vm[k] is the timestamp knowledge of messages sent to process k.
	vm   map[event.ProcID]vc.Vector
	held []heldSES
	snap snapio.Writer // Snapshot's encoding, reused (protocol.Snapshotter)
}

type heldSES struct {
	id event.MsgID
	tm vc.Vector
	// need is the (self, V) constraint extracted from the tag, nil when
	// unconstrained.
	need vc.Vector
	rest map[event.ProcID]vc.Vector
}

var (
	_ protocol.Process   = (*SES)(nil)
	_ protocol.Describer = (*SES)(nil)
)

// SESMaker builds SES instances.
func SESMaker() protocol.Process { return &SES{} }

// Describe declares the tagged capability class.
func (p *SES) Describe() protocol.Descriptor {
	return protocol.Descriptor{Name: "causal-ses", Class: protocol.Tagged}
}

// Init allocates the vector clock and send buffer.
func (p *SES) Init(env protocol.Env) {
	p.env = env
	p.v = vc.NewVector(env.NumProcs())
	p.vm = make(map[event.ProcID]vc.Vector)
}

// OnInvoke timestamps the message, attaches the send buffer, and records
// the send in it.
func (p *SES) OnInvoke(m event.Message) {
	self := int(p.env.Self())
	p.v.Tick(self)
	tm := p.v.Clone()
	tag := encodeSES(tm, p.vm)
	if prev, ok := p.vm[m.To]; ok {
		prev.Merge(tm)
	} else {
		p.vm[m.To] = tm.Clone()
	}
	p.env.Send(protocol.Wire{
		To:    m.To,
		Kind:  protocol.UserWire,
		Msg:   m.ID,
		Color: m.Color,
		Tag:   tag,
	})
}

// OnReceive applies the SES delivery condition.
func (p *SES) OnReceive(w protocol.Wire) {
	if w.Kind != protocol.UserWire {
		return
	}
	tm, entries, err := decodeSES(w.Tag)
	if err != nil {
		return // malformed tag: drop
	}
	h := heldSES{id: w.Msg, tm: tm, rest: entries}
	if need, ok := entries[p.env.Self()]; ok {
		h.need = need
		delete(entries, p.env.Self())
	}
	p.held = append(p.held, h)
	p.drain()
}

func (p *SES) drain() {
	for {
		progress := false
		for i := 0; i < len(p.held); i++ {
			h := p.held[i]
			if h.need != nil && !h.need.LessEq(p.v) {
				continue
			}
			p.held = append(p.held[:i], p.held[i+1:]...)
			// Commit state before delivering (Deliver may reenter).
			p.v.Merge(h.tm)
			for k, vec := range h.rest {
				if prev, ok := p.vm[k]; ok {
					prev.Merge(vec)
				} else {
					p.vm[k] = vec.Clone()
				}
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

// encodeSES serializes (tm, entries): tm, then a count of entries, then
// each destination and vector.
func encodeSES(tm vc.Vector, vm map[event.ProcID]vc.Vector) []byte {
	buf := tm.Encode()
	buf = binary.AppendUvarint(buf, uint64(len(vm)))
	// Deterministic order: ascending destination.
	keys := make([]int, 0, len(vm))
	for k := range vm {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(k))
		buf = append(buf, vm[event.ProcID(k)].Encode()...)
	}
	return buf
}

func decodeSES(b []byte) (vc.Vector, map[event.ProcID]vc.Vector, error) {
	tm, rest, err := decodeVectorPrefix(b)
	if err != nil {
		return nil, nil, err
	}
	cnt, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, nil, vc.ErrDecode
	}
	rest = rest[k:]
	entries := make(map[event.ProcID]vc.Vector, cnt)
	for i := uint64(0); i < cnt; i++ {
		dst, k := binary.Uvarint(rest)
		if k <= 0 {
			return nil, nil, vc.ErrDecode
		}
		rest = rest[k:]
		var vec vc.Vector
		vec, rest, err = decodeVectorPrefix(rest)
		if err != nil {
			return nil, nil, err
		}
		entries[event.ProcID(dst)] = vec
	}
	if len(rest) != 0 {
		return nil, nil, vc.ErrDecode
	}
	return tm, entries, nil
}

// decodeVectorPrefix decodes one length-prefixed vector from the front of
// b and returns the remainder.
func decodeVectorPrefix(b []byte) (vc.Vector, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > 1<<16 {
		return nil, nil, vc.ErrDecode
	}
	b = b[k:]
	v := make(vc.Vector, n)
	for i := range v {
		x, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, nil, vc.ErrDecode
		}
		v[i] = x
		b = b[k:]
	}
	return v, b, nil
}
