// Package handoff implements the paper's §5 mobile-handoff
// specification as a live protocol: no message may cross a red
// (handoff) message — forbidden is any y with x.s -> y.r && y.s -> x.r
// for a red x. The paper places this specification in the general
// class (Theorem 4.2: it cannot be implemented by tagging alone), and
// this protocol spends its control messages on a freeze-drain-thaw
// round per handoff:
//
//	mobile  --LOCK-->   coordinator          (serialize handoffs)
//	mobile  <--GRANT--  coordinator
//	mobile  --FREEZE--> every other process  (stop sending user wires)
//	mobile  <--FROZEN-- each, carrying its per-destination send counts
//	mobile  --DRAIN-->  every other process  (expected receive totals)
//	mobile  <--DRAINED- each, once all pre-freeze wires arrived
//	mobile  --red user message--> new base station d
//	d       --THAW-->   every other process  (resume sending)
//
// The drain barrier guarantees every message sent before the freeze is
// delivered — everywhere — before the red send executes, so no earlier
// message's delivery can follow x.s; the freeze guarantees no process
// sends between its FROZEN reply and the THAW, so every later send is
// causally after x.r. Ordinary (non-red) messages outside a handoff
// window are sent and delivered immediately at tagless cost: the
// protocol's overhead is confined to the handoffs themselves,
// 4(n-1)+2 control wires each.
package handoff

import (
	"encoding/binary"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
)

// Control message types.
const (
	ctrlLock    uint8 = iota + 1 // mobile -> coordinator: request handoff slot
	ctrlGrant                    // coordinator -> mobile: slot granted
	ctrlFreeze                   // mobile -> peers: stop sending user wires
	ctrlFrozen                   // peer -> mobile: frozen, + send-count vector
	ctrlDrain                    // mobile -> peers: expected receive total
	ctrlDrained                  // peer -> mobile: all pre-freeze wires arrived
	ctrlThaw                     // new base -> peers: handoff done, resume
	ctrlUnlock                   // mobile -> coordinator: slot released
)

// coordID is the process serializing handoffs (the lock coordinator).
const coordID event.ProcID = 0

// Handoff phases of the mobile process.
const (
	phaseIdle   uint8 = iota // no handoff in progress here
	phaseLock                // lock requested, awaiting grant
	phaseFreeze              // freezes sent, collecting FROZEN vectors
	phaseDrain               // drains sent, collecting DRAINED
	phaseRed                 // red sent, awaiting the THAW echo
)

// Process is one handoff protocol instance.
type Process struct {
	env  protocol.Env
	n    int
	self event.ProcID

	// sent counts user wires this process sent, per destination
	// (handoff reds included); recvd counts user wires received here.
	// Together they are the drain barrier's currency.
	sent  []uint64
	recvd uint64

	// freezes counts active FREEZE windows at this process; while
	// positive, ordinary invokes are held. A counter (not a bool)
	// because a reordered THAW from the previous handoff may arrive
	// after the next handoff's FREEZE.
	freezes int
	holdQ   []event.Message

	// Mobile-side handoff state. reds queues invoked handoffs; the
	// head is the one in flight.
	phase         uint8
	reds          []event.Message
	frozen        map[event.ProcID][]uint64
	drained       map[event.ProcID]bool
	selfDrainWant uint64
	selfDrainPend bool

	// Responder-side drain state (at most one outstanding: handoffs
	// are serialized by the coordinator lock).
	drainFrom event.ProcID
	drainRed  event.MsgID
	drainWant uint64
	drainPend bool

	// Coordinator state (process 0 only).
	lockQ    []event.ProcID
	lockBusy bool

	snap snapio.Writer // Snapshot's encoding, reused (protocol.Snapshotter)
}

var (
	_ protocol.Process   = (*Process)(nil)
	_ protocol.Describer = (*Process)(nil)
)

// Maker builds handoff protocol instances.
func Maker() protocol.Process { return &Process{} }

// Describe declares the general capability class.
func (p *Process) Describe() protocol.Descriptor {
	return protocol.Descriptor{Name: "handoff-freeze", Class: protocol.General}
}

// Init sizes the send-count vector.
func (p *Process) Init(env protocol.Env) {
	p.env = env
	p.n = env.NumProcs()
	p.self = env.Self()
	p.sent = make([]uint64, p.n)
}

// OnInvoke sends ordinary messages immediately (unless frozen or mid-
// handoff) and starts the handoff round for red ones.
func (p *Process) OnInvoke(m event.Message) {
	if m.Color == event.ColorRed {
		p.reds = append(p.reds, m)
		if p.phase == phaseIdle {
			p.startHandoff()
		}
		return
	}
	if p.freezes > 0 || p.phase != phaseIdle {
		p.holdQ = append(p.holdQ, m)
		return
	}
	p.sendUser(m)
}

// sendUser releases one ordinary user wire.
func (p *Process) sendUser(m event.Message) {
	p.sent[m.To]++
	p.env.Send(protocol.Wire{
		To:    m.To,
		Kind:  protocol.UserWire,
		Msg:   m.ID,
		Color: m.Color,
	})
}

// startHandoff requests the handoff lock for the queued red's round.
func (p *Process) startHandoff() {
	p.phase = phaseLock
	if p.self == coordID {
		p.lockQ = append(p.lockQ, p.self)
		p.pumpLock()
		return
	}
	p.env.Send(protocol.Wire{To: coordID, Kind: protocol.ControlWire, Ctrl: ctrlLock})
}

// pumpLock grants the next queued handoff when the slot is free
// (coordinator only).
func (p *Process) pumpLock() {
	if p.lockBusy || len(p.lockQ) == 0 {
		return
	}
	grantee := p.lockQ[0]
	p.lockQ = p.lockQ[1:]
	p.lockBusy = true
	if grantee == p.self {
		p.onGrant()
		return
	}
	p.env.Send(protocol.Wire{To: grantee, Kind: protocol.ControlWire, Ctrl: ctrlGrant})
}

// onGrant begins the freeze round for the handoff at the head of the
// red queue.
func (p *Process) onGrant() {
	p.phase = phaseFreeze
	p.frozen = make(map[event.ProcID][]uint64, p.n-1)
	id := uint64(p.reds[0].ID)
	for q := event.ProcID(0); int(q) < p.n; q++ {
		if q == p.self {
			continue
		}
		p.env.Send(protocol.Wire{
			To:   q,
			Kind: protocol.ControlWire,
			Ctrl: ctrlFreeze,
			Tag:  binary.AppendUvarint(nil, id),
		})
	}
	p.checkFrozen()
}

// checkFrozen advances to the drain round once every peer replied.
func (p *Process) checkFrozen() {
	if p.phase != phaseFreeze || len(p.frozen) != p.n-1 {
		return
	}
	p.phase = phaseDrain
	p.drained = make(map[event.ProcID]bool, p.n)
	id := uint64(p.reds[0].ID)
	for r := event.ProcID(0); int(r) < p.n; r++ {
		// expected receive total at r: everything every frozen peer
		// had sent to r, plus what the mobile itself sent to r.
		want := p.sent[r]
		for _, vec := range p.frozen {
			want += vec[r]
		}
		if r == p.self {
			if p.recvd >= want {
				p.drained[r] = true
			} else {
				p.selfDrainWant = want
				p.selfDrainPend = true
			}
			continue
		}
		tag := binary.AppendUvarint(nil, id)
		tag = binary.AppendUvarint(tag, want)
		p.env.Send(protocol.Wire{To: r, Kind: protocol.ControlWire, Ctrl: ctrlDrain, Tag: tag})
	}
	p.checkDrained()
}

// checkDrained sends the red once the whole system is drained.
func (p *Process) checkDrained() {
	if p.phase != phaseDrain || len(p.drained) != p.n {
		return
	}
	p.phase = phaseRed
	m := p.reds[0]
	p.sent[m.To]++
	p.env.Send(protocol.Wire{
		To:    m.To,
		Kind:  protocol.UserWire,
		Msg:   m.ID,
		Color: m.Color,
	})
}

// OnReceive handles user wires (immediate delivery; red triggers the
// thaw broadcast) and the eight control types.
func (p *Process) OnReceive(w protocol.Wire) {
	if w.Kind == protocol.UserWire {
		p.recvd++
		p.env.Deliver(w.Msg)
		if w.Color == event.ColorRed {
			// This process is the new base station: the handoff is
			// complete, release every frozen peer.
			p.freezes--
			id := binary.AppendUvarint(nil, uint64(w.Msg))
			for q := event.ProcID(0); int(q) < p.n; q++ {
				if q == p.self {
					continue
				}
				p.env.Send(protocol.Wire{To: q, Kind: protocol.ControlWire, Ctrl: ctrlThaw, Tag: id})
			}
			p.maybeFlush()
		}
		p.checkDrainReply()
		if p.selfDrainPend && p.recvd >= p.selfDrainWant {
			p.selfDrainPend = false
			p.drained[p.self] = true
			p.checkDrained()
		}
		return
	}
	switch w.Ctrl {
	case ctrlLock:
		p.lockQ = append(p.lockQ, w.From)
		p.pumpLock()
	case ctrlGrant:
		p.onGrant()
	case ctrlFreeze:
		p.freezes++
		tag, _ := binary.Uvarint(w.Tag)
		reply := binary.AppendUvarint(nil, tag)
		for _, s := range p.sent {
			reply = binary.AppendUvarint(reply, s)
		}
		p.env.Send(protocol.Wire{To: w.From, Kind: protocol.ControlWire, Ctrl: ctrlFrozen, Tag: reply})
	case ctrlFrozen:
		id, vec, ok := decodeFrozen(w.Tag, p.n)
		if !ok || p.phase != phaseFreeze || len(p.reds) == 0 || id != p.reds[0].ID {
			return
		}
		p.frozen[w.From] = vec
		p.checkFrozen()
	case ctrlDrain:
		buf := w.Tag
		id, k := binary.Uvarint(buf)
		if k <= 0 {
			return
		}
		want, k2 := binary.Uvarint(buf[k:])
		if k2 <= 0 {
			return
		}
		p.drainFrom, p.drainRed, p.drainWant, p.drainPend = w.From, event.MsgID(id), want, true
		p.checkDrainReply()
	case ctrlDrained:
		id, k := binary.Uvarint(w.Tag)
		if k <= 0 || p.phase != phaseDrain || len(p.reds) == 0 || event.MsgID(id) != p.reds[0].ID {
			return
		}
		p.drained[w.From] = true
		p.checkDrained()
	case ctrlThaw:
		p.onThaw(w)
	case ctrlUnlock:
		p.lockBusy = false
		p.pumpLock()
	}
}

// checkDrainReply answers an outstanding DRAIN once every expected
// pre-freeze wire has arrived.
func (p *Process) checkDrainReply() {
	if !p.drainPend || p.recvd < p.drainWant {
		return
	}
	p.drainPend = false
	p.env.Send(protocol.Wire{
		To:   p.drainFrom,
		Kind: protocol.ControlWire,
		Ctrl: ctrlDrained,
		Tag:  binary.AppendUvarint(nil, uint64(p.drainRed)),
	})
}

// onThaw ends the handoff at the mobile (matched by red id) or
// releases one freeze window at a peer.
func (p *Process) onThaw(w protocol.Wire) {
	id, k := binary.Uvarint(w.Tag)
	if k <= 0 {
		return
	}
	if p.phase == phaseRed && len(p.reds) > 0 && event.MsgID(id) == p.reds[0].ID {
		p.phase = phaseIdle
		p.reds = p.reds[1:]
		p.frozen, p.drained, p.selfDrainPend = nil, nil, false
		if p.self == coordID {
			p.lockBusy = false
			p.pumpLock()
		} else {
			p.env.Send(protocol.Wire{To: coordID, Kind: protocol.ControlWire, Ctrl: ctrlUnlock})
		}
		p.maybeFlush()
		if len(p.reds) > 0 && p.phase == phaseIdle {
			p.startHandoff()
		}
		return
	}
	p.freezes--
	p.maybeFlush()
}

// maybeFlush releases held ordinary invokes once this process is
// neither frozen nor mid-handoff.
func (p *Process) maybeFlush() {
	if p.freezes > 0 || p.phase != phaseIdle {
		return
	}
	q := p.holdQ
	p.holdQ = nil
	for _, m := range q {
		p.sendUser(m)
	}
}

// decodeFrozen splits a FROZEN tag into the red id and the sender's
// per-destination send-count vector.
func decodeFrozen(tag []byte, n int) (event.MsgID, []uint64, bool) {
	id, k := binary.Uvarint(tag)
	if k <= 0 {
		return 0, nil, false
	}
	tag = tag[k:]
	vec := make([]uint64, n)
	for i := range vec {
		v, k := binary.Uvarint(tag)
		if k <= 0 {
			return 0, nil, false
		}
		vec[i] = v
		tag = tag[k:]
	}
	return event.MsgID(id), vec, true
}
