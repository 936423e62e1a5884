//go:build !race

package transport

import (
	"testing"

	"msgorder/internal/event"
)

// TestSnapshotStateAllocationBudget pins a warm SnapshotState at zero
// allocations: counters on several channels, a seen set with gaps and
// a pending window are encoded into the writer and sort scratch the
// Reliable keeps. (Build-tagged !race: the detector's instrumentation
// allocates.)
func TestSnapshotStateAllocationBudget(t *testing.T) {
	r := quietReliable(t)
	for i := 0; i < 64; i++ {
		r.Wrap(0, event.ProcID(1+i%2), wire(event.MsgID(i)))
	}
	for seq := uint64(1); seq <= 40; seq += 3 { // every third: gaps stay
		r.Accept(Envelope{Src: 2, Dst: 0, Kind: Data, Seq: seq, Wire: wire(0)})
	}
	want := len(r.SnapshotState())
	allocs := testing.AllocsPerRun(50, func() {
		if got := len(r.SnapshotState()); got != want {
			t.Fatalf("state is %d bytes, want %d", got, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm SnapshotState: %.0f allocations, want 0", allocs)
	}
}

// TestWrapAckAllocationBudget pins the per-envelope reliable path at
// zero allocations once warm: a sender's Wrap fills a retired slab
// slot, the receiver's Accept and CumAckFor touch only its existing
// tables, and the sender's cumulative Ack retires the window back to
// the free list.
func TestWrapAckAllocationBudget(t *testing.T) {
	tx, rx := quietReliable(t), quietReliable(t)
	const window = 8
	envs := make([]Envelope, window)
	cycle := func() {
		for i := range envs {
			envs[i] = tx.Wrap(0, 1, wire(event.MsgID(i)))
		}
		for _, e := range envs {
			rx.Accept(e)
		}
		tx.Ack(rx.CumAckFor(envs[window-1]))
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm Wrap → Accept → CumAckFor → Ack: %.1f allocations per %d envelopes, want 0", allocs, window)
	}
	if n := tx.Pending(); n != 0 {
		t.Fatalf("%d envelopes still pending after the cumulative acks", n)
	}
}
