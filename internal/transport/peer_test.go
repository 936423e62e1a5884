package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"msgorder/internal/event"
)

func TestPeerDownPausesRetransmission(t *testing.T) {
	var resent atomic.Int64
	r := NewReliable(
		Config{RTO: time.Millisecond, MaxRTO: 4 * time.Millisecond, Tick: 500 * time.Microsecond},
		func(Envelope) { resent.Add(1) },
	)
	defer r.Close()
	r.PeerDown(1)
	r.Wrap(0, 1, wire(0))
	time.Sleep(25 * time.Millisecond)
	if n := resent.Load(); n != 0 {
		t.Fatalf("%d retransmissions towards a down peer, want 0", n)
	}
	if c := r.Counters(); c.Retransmits != 0 {
		t.Fatalf("counters = %+v, want no retransmits while down", c)
	}

	// PeerUp makes the pending envelope due immediately.
	r.PeerUp(1)
	deadline := time.Now().Add(2 * time.Second)
	for resent.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no retransmission after PeerUp")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPeerDownLeavesOtherChannelsAlone(t *testing.T) {
	var resent atomic.Int64
	r := NewReliable(
		Config{RTO: time.Millisecond, MaxRTO: 4 * time.Millisecond, Tick: 500 * time.Microsecond},
		func(e Envelope) {
			if e.Dst == 2 {
				resent.Add(1)
			} else {
				t.Errorf("retransmission towards down peer: %+v", e)
			}
		},
	)
	defer r.Close()
	r.PeerDown(1)
	r.Wrap(0, 1, wire(0))
	r.Wrap(0, 2, wire(1))
	deadline := time.Now().Add(2 * time.Second)
	for resent.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no retransmission towards the live peer")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCancelToCountsOnlyUnaccepted(t *testing.T) {
	r := NewReliable(Config{RTO: time.Hour}, noSend)
	defer r.Close()
	// Envelope a was accepted by peer 1 but its ack was lost (still
	// pending); envelope b never arrived.
	a := r.Wrap(0, 1, wire(0))
	r.Accept(a)
	r.Wrap(0, 1, wire(1))
	// Traffic to other peers is untouched.
	r.Wrap(0, 2, wire(2))

	if lost := r.CancelTo(1); lost != 1 {
		t.Fatalf("CancelTo(1) = %d lost, want 1 (only the never-accepted envelope)", lost)
	}
	if n := r.Pending(); n != 1 {
		t.Fatalf("pending = %d after cancel, want 1 (the 0->2 envelope)", n)
	}
	if lost := r.CancelTo(1); lost != 0 {
		t.Fatalf("second CancelTo(1) = %d, want 0 (idempotent)", lost)
	}
}

// TestPartitionHealsAfterBackoffCap is the regression for a channel
// wedging permanently: a partition that only heals after the sender has
// hit its maximum backoff must still deliver, because the capped RTO
// keeps retransmissions (and the partition's heal budget) flowing.
func TestPartitionHealsAfterBackoffCap(t *testing.T) {
	in := NewInjector(FaultPlan{
		Partitions: []Partition{{A: []event.ProcID{0}, B: []event.ProcID{1}, Heal: 12}},
		Seed:       1,
	})
	accepted := make(chan struct{}, 1)
	var r *Reliable
	r = NewReliable(
		// MaxRTO is reached by the second attempt, far before the heal
		// budget (12 crossings) is spent.
		Config{RTO: time.Millisecond, MaxRTO: 2 * time.Millisecond, Tick: 500 * time.Microsecond},
		func(e Envelope) {
			if in.Decide(e.Src, e.Dst) != Deliver {
				return
			}
			fresh := r.Accept(e)
			r.Ack(AckFor(e))
			// Signal only after the ack: the waiter reads Pending next.
			if fresh {
				select {
				case accepted <- struct{}{}:
				default:
				}
			}
		},
	)
	defer r.Close()

	e := r.Wrap(0, 1, wire(0))
	if in.Decide(e.Src, e.Dst) == Deliver {
		t.Fatal("first transmission must hit the partition")
	}

	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatalf("channel wedged: partition never healed through capped backoff (faults: %+v, counters: %+v)",
			in.Counters(), r.Counters())
	}
	if r.Pending() != 0 {
		t.Fatalf("pending = %d after delivery+ack", r.Pending())
	}
	if c := in.Counters(); c.PartitionDrops != 12 {
		t.Fatalf("partition drops = %d, want the full heal budget of 12", c.PartitionDrops)
	}
}
