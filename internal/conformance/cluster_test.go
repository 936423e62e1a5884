package conformance

import (
	"strings"
	"testing"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/transport"
)

// TestStuckCellFailsWithMeshState drives a lockstep cell whose one
// message crosses a permanent one-way cut. The cell must fail within
// its per-message bound instead of blocking, and the error must name
// every endpoint's delivered count and transport counters — the sender
// retransmitting into the cut included — not only the waiting node.
func TestStuckCellFailsWithMeshState(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cell")
	}
	inj := transport.NewInjector(transport.FaultPlan{Seed: 1})
	inj.CutOneWay([]event.ProcID{0}, []event.ProcID{1}, -1)
	c, err := newCluster(cellSpec{
		name: "fifo/cut", procs: 3, seed: 1, maker: protocols(t, "fifo")[0].Maker,
		inj: inj, wait: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	msgs := []event.Message{{ID: 0, From: 0, To: 1}}
	done := make(chan error, 1)
	go func() { done <- c.drive([][]event.Message{msgs}, 0, len(msgs), nil) }()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stuck cell still blocked 10s after a 200ms per-message bound")
	}
	if err == nil {
		t.Fatal("a message across a permanent cut was reported delivered")
	}
	for _, want := range []string{
		"fifo/cut P0 delivered 0 of 0, transport {Sent:1 Retransmits:",
		"fifo/cut P1 delivered 0 of 1, transport {Sent:0",
		"fifo/cut P2 delivered 0 of 0, transport {Sent:0",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
}
