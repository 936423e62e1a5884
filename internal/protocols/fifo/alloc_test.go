//go:build !race

package fifo

import (
	"testing"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
)

// discardEnv is an Env that keeps only the last wire sent, so it
// allocates nothing itself.
type discardEnv struct{ last protocol.Wire }

func (e *discardEnv) Self() event.ProcID     { return 0 }
func (e *discardEnv) NumProcs() int          { return 2 }
func (e *discardEnv) Send(w protocol.Wire)   { e.last = w }
func (e *discardEnv) Deliver(id event.MsgID) {}

// TestInvokeTagAllocationBudget pins the send side's tag cost: once the
// instance's tag arena has grown its chunks to their cap, a warm
// OnInvoke carves its tag from the current chunk, so 64 invokes cost at
// most one allocation (≤ 1/64 per message). The test is excluded under
// -race because the detector's instrumentation allocates.
func TestInvokeTagAllocationBudget(t *testing.T) {
	p := &Process{}
	env := &discardEnv{}
	p.Init(env)
	m := event.Message{From: 0, To: 1}
	invoke := func() {
		for range 64 {
			m.ID++
			p.OnInvoke(m)
		}
	}
	for range 100 { // grow the arena's chunks to their cap
		invoke()
	}
	if avg := testing.AllocsPerRun(200, invoke); avg > 1 {
		t.Errorf("64 warm invokes allocate %.0f times, want ≤ 1", avg)
	}
	if seq := env.last.Tag; len(seq) == 0 || cap(seq) != len(seq) {
		t.Errorf("last tag %v has capacity %d, want its length", seq, cap(seq))
	}
}
