package chanmux

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/netmesh"
	"msgorder/internal/protocol"
	"msgorder/internal/transport"
)

// freePorts reserves n distinct loopback addresses.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		// Held until the whole set is picked, or the kernel may hand the
		// same port out twice.
		defer ln.Close()
	}
	return addrs
}

// startMuxes boots an n-process multiplexed mesh.
func startMuxes(t *testing.T, n int, mutate func(i int, cfg *Config)) []*Mux {
	t.Helper()
	addrs := freePorts(t, n)
	muxes := make([]*Mux, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			Self:  event.ProcID(i),
			Procs: n,
			Mesh:  netmesh.MeshConfig{Addrs: addrs, Seed: int64(i + 1)},
			Transport: transport.Config{
				RTO: 2 * time.Millisecond, MaxRTO: 30 * time.Millisecond,
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		muxes[i] = m
		t.Cleanup(func() { m.Close() })
	}
	return muxes
}

// openAll opens the same channel spec on every peer.
func openAll(t *testing.T, muxes []*Mux, s Spec) []*Channel {
	t.Helper()
	chans := make([]*Channel, len(muxes))
	for i, m := range muxes {
		ch, err := m.Open(s)
		if err != nil {
			t.Fatalf("peer %d open %q: %v", i, s.Name, err)
		}
		chans[i] = ch
	}
	return chans
}

// lockstep drives msgs through one channel, waiting for each delivery.
func lockstep(t *testing.T, chans []*Channel, msgs []event.Message, perMsg time.Duration) {
	t.Helper()
	want := make([]int, len(chans))
	for i, ch := range chans {
		want[i] = len(ch.Deliveries())
	}
	for _, m := range msgs {
		if err := chans[m.From].Invoke(m); err != nil {
			t.Fatalf("invoke m%d: %v", m.ID, err)
		}
		want[m.To]++
		if err := chans[m.To].WaitDeliveries(want[m.To], perMsg); err != nil {
			t.Fatalf("waiting for m%d on %q: %v", m.ID, chans[m.To].Name(), err)
		}
	}
}

// TestHeterogeneousChannelsShareOneMesh is the core multi-tenant
// scenario: three channels with different guarantee levels — liveness-
// only (tagless witness), causal (causal-rst witness), and a forced
// synchronous protocol — share one 3-process mesh. Each must classify
// to its cheapest witness, deliver independently, and the tagless
// channel must stay overhead-free (no tag bytes, no control wires)
// while its siblings tag and signal on the same connections.
func TestHeterogeneousChannelsShareOneMesh(t *testing.T) {
	muxes := startMuxes(t, 3, nil)
	logs := openAll(t, muxes, Spec{Name: "logs"})
	orders := openAll(t, muxes, Spec{Name: "orders", Spec: "causal-b2"})
	ctrl := openAll(t, muxes, Spec{Name: "ctrl", Proto: "sync"})

	if logs[0].Proto() != "tagless" || orders[0].Proto() != "causal-rst" || ctrl[0].Proto() != "sync" {
		t.Fatalf("witnesses = %s/%s/%s", logs[0].Proto(), orders[0].Proto(), ctrl[0].Proto())
	}

	const per = 5 * time.Second
	for round := 0; round < 20; round++ {
		from := event.ProcID(round % 3)
		to := event.ProcID((round + 1) % 3)
		id := event.MsgID(round)
		lockstep(t, logs, []event.Message{{ID: id, From: from, To: to}}, per)
		lockstep(t, orders, []event.Message{{ID: id, From: from, To: to}}, per)
		lockstep(t, ctrl, []event.Message{{ID: id, From: from, To: to}}, per)
	}

	for i := range muxes {
		for _, ch := range []*Channel{logs[i], orders[i], ctrl[i]} {
			if err := ch.Err(); err != nil {
				t.Fatalf("peer %d channel %q: %v", i, ch.Name(), err)
			}
		}
		s := logs[i].Stats()
		if s.UserTagBytes != 0 || s.ControlMessages != 0 {
			t.Fatalf("peer %d tagless channel paid overhead: tags=%d ctrl=%d",
				i, s.UserTagBytes, s.ControlMessages)
		}
		if muxes[i].UnknownDrops() != 0 {
			t.Fatalf("peer %d dropped %d envelopes as unknown", i, muxes[i].UnknownDrops())
		}
	}
	// All three channels rode the same sockets: one mesh endpoint per
	// process, so at most one accepted connection per peer pair.
	if c := muxes[0].MeshCounters(); c.Accepted > 2 {
		t.Fatalf("mesh 0 accepted %d connections, want ≤ 2 (one per peer)", c.Accepted)
	}
}

// TestChannelCrashRecoversIndependently crashes one channel's node at
// one peer mid-run (WAL-backed) and checks the sibling channel keeps
// delivering during the downtime, and the crashed channel recovers and
// catches up.
func TestChannelCrashRecoversIndependently(t *testing.T) {
	dir := t.TempDir()
	muxes := startMuxes(t, 2, func(i int, cfg *Config) {
		cfg.WALDir = filepath.Join(dir, string(rune('a'+i)))
		if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
			t.Fatal(err)
		}
		cfg.SnapshotEvery = 8
	})
	a := openAll(t, muxes, Spec{Name: "a", Spec: "fifo"})
	b := openAll(t, muxes, Spec{Name: "b"})

	const per = 5 * time.Second
	for i := 0; i < 5; i++ {
		lockstep(t, a, []event.Message{{ID: event.MsgID(i), From: 0, To: 1}}, per)
	}
	if err := a[1].Crash(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Sibling channel b delivers while a's peer-1 node is down.
	for i := 0; i < 10; i++ {
		lockstep(t, b, []event.Message{{ID: event.MsgID(i), From: 0, To: 1}}, per)
	}
	// Channel a resumes after recovery: retransmissions carry the rest.
	for i := 5; i < 10; i++ {
		if err := a[0].Invoke(event.Message{ID: event.MsgID(i), From: 0, To: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a[1].WaitDeliveries(10, 10*time.Second); err != nil {
		t.Fatalf("crashed channel did not catch up: %v", err)
	}
	if got := a[1].Stats().Recoveries; got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	if err := a[1].Err(); err != nil {
		t.Fatalf("recovered channel: %v", err)
	}
}

// TestOpenValidation pins the open-time error surface: bad names,
// duplicate opens, unknown forced protocols, protocols weaker than the
// spec's class, and closed muxes are all refused.
func TestOpenValidation(t *testing.T) {
	muxes := startMuxes(t, 2, nil)
	m := muxes[0]
	if _, err := m.Open(Spec{Name: ""}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := m.Open(Spec{Name: "has space"}); err == nil {
		t.Fatal("name with space accepted")
	}
	if _, err := m.Open(Spec{Name: "x", Proto: "nope"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := m.Open(Spec{Name: "x", Spec: "causal-b2", Proto: "tagless"}); err == nil {
		t.Fatal("tagless protocol accepted for a tagged spec")
	}
	if _, err := m.Open(Spec{Name: "x", Spec: "not a ( spec"}); err == nil {
		t.Fatal("malformed spec accepted")
	}
	if _, err := m.Open(Spec{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(Spec{Name: "x"}); err == nil {
		t.Fatal("duplicate open accepted")
	}
	if _, err := m.Get("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("y"); !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("Get(unknown) = %v, want ErrUnknownChannel", err)
	}
	if err := m.CloseChannel("y"); !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("CloseChannel(unknown) = %v, want ErrUnknownChannel", err)
	}
	if err := m.CloseChannel("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("x"); !errors.Is(err, ErrUnknownChannel) {
		t.Fatal("closed channel still resolvable")
	}
	m.Close()
	if _, err := m.Open(Spec{Name: "z"}); err == nil {
		t.Fatal("open on closed mux accepted")
	}
}

// TestChannelsListing checks the sorted channel inventory.
func TestChannelsListing(t *testing.T) {
	muxes := startMuxes(t, 2, nil)
	openAll(t, muxes, Spec{Name: "zeta"})
	openAll(t, muxes, Spec{Name: "alpha", Spec: "causal-b2"})
	got := muxes[0].Channels()
	if len(got) != 2 || got[0].Name != "alpha" || got[1].Name != "zeta" {
		t.Fatalf("Channels() = %+v", got)
	}
	if got[0].Proto != "causal-rst" || got[0].Class != "tagged" {
		t.Fatalf("alpha info = %+v", got[0])
	}
	if got[0].ID != ChannelID("alpha") || got[0].ID == DefaultChan {
		t.Fatalf("alpha ID = %#x", got[0].ID)
	}
}

// TestUnknownChannelTrafficDropped sends on a channel only one side has
// opened: the other side must count the arrivals as unknown drops and
// deliver nothing, and the sender's retransmissions must flow to it
// once it opens late (the open-race contract).
func TestUnknownChannelTrafficDropped(t *testing.T) {
	muxes := startMuxes(t, 2, nil)
	ch0, err := muxes[0].Open(Spec{Name: "late"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch0.Invoke(event.Message{ID: 0, From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for muxes[1].UnknownDrops() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("peer 1 never saw the unknown-channel envelope")
		}
		time.Sleep(time.Millisecond)
	}
	// Late symmetric open: retransmission delivers the message.
	ch1, err := muxes[1].Open(Spec{Name: "late"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch1.WaitDeliveries(1, 10*time.Second); err != nil {
		t.Fatalf("late-opened channel never caught up: %v", err)
	}
}

// TestChannelIDDeterministicAndReserved pins the ID derivation: stable
// across calls, never the reserved default channel 0.
func TestChannelIDDeterministicAndReserved(t *testing.T) {
	if ChannelID("orders") != ChannelID("orders") {
		t.Fatal("ChannelID not deterministic")
	}
	if ChannelID("orders") == ChannelID("logs") {
		t.Fatal("distinct names collided (astronomically unlikely)")
	}
	for _, name := range []string{"a", "orders", "logs", "ctrl", "late"} {
		if ChannelID(name) == DefaultChan {
			t.Fatalf("ChannelID(%q) hit the reserved default channel", name)
		}
	}
}

// TestMixedBatchDemuxesPerChannel hands one peer's mux a batch that
// interleaves two open channels with an unopened one, then overwrites
// the batch. Each open channel delivers its own envelopes, unchanged
// and in order, and acknowledges them with a single cumulative ack —
// its share of the batch reached its node as one batch — while the
// unopened channel's envelopes count as unknown drops.
func TestMixedBatchDemuxesPerChannel(t *testing.T) {
	muxes := startMuxes(t, 2, nil)
	a := openAll(t, muxes, Spec{Name: "a"})
	b := openAll(t, muxes, Spec{Name: "b"})
	const unopened = 12345
	var batch []transport.Envelope
	for i := 0; i < 9; i++ {
		id := []uint32{a[1].ID(), b[1].ID(), unopened}[i%3]
		batch = append(batch, transport.Envelope{Src: 0, Dst: 1, Kind: transport.Data, Chan: id,
			Seq: uint64(i/3 + 1), Wire: protocol.Wire{From: 0, To: 1, Kind: protocol.UserWire, Msg: event.MsgID(i)}})
	}
	muxes[1].receive(batch)
	for i := range batch {
		batch[i].Wire.Msg = 999
	}
	for _, c := range []struct {
		ch   []*Channel
		want []event.MsgID
	}{{a, []event.MsgID{0, 3, 6}}, {b, []event.MsgID{1, 4, 7}}} {
		if err := c.ch[1].WaitDeliveries(3, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if got := c.ch[1].Deliveries(); !slices.Equal(got, c.want) {
			t.Fatalf("channel %s delivered %v, want %v", c.ch[1].Name(), got, c.want)
		}
		deadline := time.Now().Add(5 * time.Second)
		for c.ch[0].TransportCounters().AcksReceived == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(20 * time.Millisecond) // room for any further ack to arrive
	for _, ch := range []*Channel{a[0], b[0]} {
		if n := ch.TransportCounters().AcksReceived; n != 1 {
			t.Errorf("channel %s: %d acks for its 3-envelope share, want 1 cumulative ack", ch.Name(), n)
		}
	}
	if n := muxes[1].UnknownDrops(); n != 3 {
		t.Errorf("unknown drops = %d, want 3", n)
	}
}
