package netmesh

import (
	"slices"
	"testing"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/protocols/tagless"
	"msgorder/internal/transport"
)

// TestIdleHopNeedsNoTimer pins the idle path of the self-clocked
// sender: a lone envelope on an idle connection is written at once, so
// a one-at-a-time round trip over two endpoints costs two socket hops
// and nothing else. Any per-hop wait for company — a flush window, a
// poll — shows up here as a millisecond or more.
func TestIdleHopNeedsNoTimer(t *testing.T) {
	addrs := freePorts(t, 2)
	fp := Fingerprint("idlehop", "spec", 2)
	back := make(chan struct{}, 1) // one round trip in flight at a time
	a, err := NewMesh(MeshConfig{Self: 0, Addrs: addrs, Fingerprint: fp},
		func([]transport.Envelope) { back <- struct{}{} })
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var b *Mesh
	b, err = NewMesh(MeshConfig{Self: 1, Addrs: addrs, Fingerprint: fp, Seed: 2},
		func(envs []transport.Envelope) {
			for _, e := range envs {
				b.Send(transport.Envelope{Src: 1, Dst: 0, Kind: transport.Ack, Seq: e.Seq})
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	roundTrip := func(seq uint64) time.Duration {
		start := time.Now()
		a.Send(transport.Envelope{Src: 0, Dst: 1, Kind: transport.Data, Seq: seq})
		select {
		case <-back:
		case <-time.After(10 * time.Second):
			t.Fatalf("round trip %d never came back", seq)
		}
		return time.Since(start)
	}
	roundTrip(0) // dials both directions
	rtts := make([]time.Duration, 200)
	for i := range rtts {
		rtts[i] = roundTrip(uint64(i + 1))
	}
	slices.Sort(rtts)
	if med := rtts[len(rtts)/2]; med >= 500*time.Microsecond {
		t.Fatalf("median idle round trip %v, want < 500µs (p10 %v, p90 %v)", med, rtts[20], rtts[180])
	}
}

// TestBacklogCoalescesIntoFullFrames pins the loaded path: what queues
// while the sender cannot write — here, while the peer is not listening
// yet — leaves in full frames once it can, in per-channel FIFO order.
// The sender may have popped a short first batch before the backlog
// built, hence the one frame of slack.
func TestBacklogCoalescesIntoFullFrames(t *testing.T) {
	const msgs, maxBatch = 200, 64
	addrs := freePorts(t, 2)
	fp := Fingerprint("backlog", "spec", 2)
	send, err := NewMesh(MeshConfig{Self: 0, Addrs: addrs, Fingerprint: fp, MaxBatch: maxBatch,
		MaxDialBackoff: 5 * time.Millisecond}, func([]transport.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	for i := 0; i < msgs; i++ {
		send.Send(transport.Envelope{Src: 0, Dst: 1, Kind: transport.Data, Chan: uint32(i % 2), Seq: uint64(i/2 + 1)})
	}

	got := make(chan transport.Envelope, msgs) // sized to the sends: rcv must not block
	recv, err := NewMesh(MeshConfig{Self: 1, Addrs: addrs, Fingerprint: fp, Seed: 2},
		func(envs []transport.Envelope) {
			for _, e := range envs {
				got <- e
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	var last [2]uint64
	for i := 0; i < msgs; i++ {
		select {
		case e := <-got:
			if e.Seq != last[e.Chan]+1 {
				t.Fatalf("channel %d: seq %d arrived after %d", e.Chan, e.Seq, last[e.Chan])
			}
			last[e.Chan] = e.Seq
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d envelopes arrived", i, msgs)
		}
	}
	want := (msgs+maxBatch-1)/maxBatch + 1
	if c := send.Counters(); c.FramesOut > want || c.EnvelopesOut != msgs {
		t.Fatalf("backlog of %d left in %d frames (%d envelopes), want ≤ %d frames", msgs, c.FramesOut, c.EnvelopesOut, want)
	}
}

// TestWaitDeliveriesWakesEachWaiterAtItsCount: WaitDeliveries sleeps on
// a condition that fires at the smallest count any sleeper wants, so
// sleepers with different targets must each return at their own, a
// stale target left by a timed-out sleeper must not strand the others,
// and the timeout error keeps its text.
func TestWaitDeliveriesWakesEachWaiterAtItsCount(t *testing.T) {
	nodes := startMeshNodes(t, 2, tagless.Maker, nil)
	if err := nodes[1].WaitDeliveries(2, 5*time.Millisecond); err == nil ||
		err.Error() != "netmesh: P1 delivered 0 of 2 after 5ms" {
		t.Fatalf("timed-out wait returned %v", err)
	}
	errs := make(chan error, 3)
	for _, k := range []int{3, 1, 5} {
		go func(k int) { errs <- nodes[1].WaitDeliveries(k, 10*time.Second) }(k)
	}
	for i := 0; i < 5; i++ {
		if err := nodes[0].Invoke(event.Message{ID: event.MsgID(i), From: 0, To: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
