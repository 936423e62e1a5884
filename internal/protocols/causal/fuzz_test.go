package causal

import (
	"testing"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/ptest"
	"msgorder/internal/vc"
)

// FuzzCausalOnReceive hands RST, SES or BSS (proto mod 3), at process
// 1 of 3 holding one honest message, an arbitrary tag from an
// arbitrary sender. Nothing may panic; RST and BSS deliver the message
// only if the tag is a clock of dimension 3 (by the allocating
// decoders); and the state must still snapshot, restore and re-encode
// byte-identically. testdata/fuzz holds the crashers found so far.
func FuzzCausalOnReceive(f *testing.F) {
	m := vc.NewMatrix(3)
	m.Set(0, 1, 1)
	f.Add(uint8(0), int8(0), m.Encode())
	f.Add(uint8(1), int8(2), appendSES(nil, vc.Vector{0, 0, 1}, []vc.Vector{1: {0, 0, 1}}))
	f.Add(uint8(2), int8(0), append([]byte{bssCast}, vc.Vector{0, 0, 0}.Encode()...))
	f.Add(uint8(2), int8(0), []byte{bssPlain})
	f.Fuzz(func(t *testing.T, proto uint8, from int8, tag []byte) {
		mk := []func() protocol.Process{RSTMaker, SESMaker, BSSMaker}[proto%3]
		p, env := mk(), ptest.NewEnv(1, 3)
		p.Init(env)
		// P0's second message to P1, held until its first arrives.
		sender, senv := mk(), ptest.NewEnv(0, 3)
		sender.Init(senv)
		for id := range 2 {
			sendOne(sender, event.Message{ID: event.MsgID(id), From: 0, To: 1})
		}
		p.OnReceive(senv.TakeSent()[1])

		p.OnReceive(protocol.Wire{From: event.ProcID(from), To: 1, Kind: protocol.UserWire, Msg: 9, Tag: tag})
		if delivered := len(env.Delivered) > 0; delivered && !wellFormed(proto%3, from, tag) {
			t.Fatalf("malformed tag %x from %d delivered %v", tag, from, env.DeliveredSeq())
		}
		clone := mk()
		clone.Init(ptest.NewEnv(1, 3))
		ptest.RestoreClone(t, p, clone)
	})
}

// wellFormed reports, with the allocating decoders, whether an RST or
// BSS tag from sender from is one a process of 3 may act on. SES
// reports true: its tag has no such reference decoder.
func wellFormed(proto uint8, from int8, tag []byte) bool {
	switch proto {
	case 0:
		m, err := vc.DecodeMatrix(tag)
		return err == nil && m.N() == 3 && from >= 0 && from < 3
	case 2:
		if len(tag) > 0 && tag[0] == bssPlain {
			return true
		}
		if len(tag) == 0 || tag[0] != bssCast {
			return false
		}
		v, err := vc.DecodeVector(tag[1:])
		return err == nil && len(v) == 3 && from >= 0 && from < 3
	}
	return true
}
