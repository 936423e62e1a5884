//go:build !race

package causal

import (
	"testing"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
)

// countEnv is an Env that keeps only the last wire sent and counts
// deliveries, so it allocates nothing itself.
type countEnv struct {
	self      event.ProcID
	n         int
	last      protocol.Wire
	delivered int
}

func (e *countEnv) Self() event.ProcID { return e.self }
func (e *countEnv) NumProcs() int      { return e.n }
func (e *countEnv) Send(w protocol.Wire) {
	w.From = e.self
	e.last = w
}
func (e *countEnv) Deliver(event.MsgID) { e.delivered++ }

// rstPair is an RST sender (P0) and receiver (P1) of n.
func rstPair(n int) (send, recv *RST, senv, renv *countEnv) {
	send, recv = &RST{}, &RST{}
	senv, renv = &countEnv{self: 0, n: n}, &countEnv{self: 1, n: n}
	send.Init(senv)
	recv.Init(renv)
	return send, recv, senv, renv
}

// TestRSTRoundTripAllocationBudget pins RST's tag cost at n = 8 on an
// in-order stream: once the sender's tag arena has grown its chunks to
// their cap, 32 invoke → receive → deliver round trips allocate at most
// once (an arena chunk; a tag is 66 bytes), and the receive → deliver
// half allocates nothing: the tag is checked and merged where it lies.
// The test is excluded under -race because the detector's
// instrumentation allocates.
func TestRSTRoundTripAllocationBudget(t *testing.T) {
	send, recv, senv, renv := rstPair(8)
	m := event.Message{From: 0, To: 1}
	roundTrips := func() {
		for range 32 {
			m.ID++
			send.OnInvoke(m)
			recv.OnReceive(senv.last)
		}
	}
	for range 200 { // grow the arena's chunks to their cap
		roundTrips()
	}
	if avg := testing.AllocsPerRun(100, roundTrips); avg > 1 {
		t.Errorf("32 warm round trips allocate %.2f times, want ≤ 1", avg)
	}
	if renv.delivered != int(m.ID) {
		t.Fatalf("delivered %d of %d", renv.delivered, m.ID)
	}

	wires := make([]protocol.Wire, 101) // AllocsPerRun calls once more than asked
	for i := range wires {
		m.ID++
		send.OnInvoke(m)
		wires[i] = senv.last
	}
	i := 0
	if avg := testing.AllocsPerRun(100, func() {
		recv.OnReceive(wires[i])
		i++
	}); avg != 0 {
		t.Errorf("a warm receive → deliver allocates %.2f times, want 0", avg)
	}
	if renv.delivered != int(m.ID) {
		t.Fatalf("delivered %d of %d", renv.delivered, m.ID)
	}
}

// TestSnapshotAllocationBudget: a warm Snapshot of RST, SES or BSS at
// n = 8, holding a message, allocates nothing: every clock is encoded
// into a buffer the instance keeps and held tags are written as the
// bytes they are.
func TestSnapshotAllocationBudget(t *testing.T) {
	for _, mk := range []func() protocol.Process{RSTMaker, SESMaker, BSSMaker} {
		send, recv := mk(), mk()
		senv, renv := &countEnv{self: 0, n: 8}, &countEnv{self: 1, n: 8}
		send.Init(senv)
		recv.Init(renv)
		var wires []protocol.Wire
		for id := range 2 {
			sendOne(send, event.Message{ID: event.MsgID(id), From: 0, To: 1})
			wires = append(wires, senv.last)
		}
		recv.OnReceive(wires[1]) // held: the first is still in flight
		if renv.delivered != 0 {
			t.Fatalf("%T delivered out of order", recv)
		}
		s := recv.(protocol.Snapshotter)
		s.Snapshot()
		if avg := testing.AllocsPerRun(100, func() { s.Snapshot() }); avg != 0 {
			t.Errorf("%T: a warm Snapshot allocates %.2f times, want 0", recv, avg)
		}
	}
}
