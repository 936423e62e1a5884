package netmesh

import (
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/obs"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/causal"
	"msgorder/internal/protocols/tagless"
	"msgorder/internal/transport"
	"msgorder/internal/userview"
)

func TestEnvelopeCodecRoundTrip(t *testing.T) {
	cases := []transport.Envelope{
		{Src: 0, Dst: 1, Kind: transport.Data, Seq: 1,
			Wire: protocol.Wire{From: 0, To: 1, Kind: protocol.UserWire, Msg: 0}},
		{Src: 2, Dst: 0, Kind: transport.Ack, Seq: 129, Cum: 127},
		{Src: 2, Dst: 0, Kind: transport.Ack, Chan: 1 << 31, Seq: 1 << 40, Attempt: 2},
		{Src: 1, Dst: 0, Kind: transport.Beat},
		{Src: 1, Dst: 2, Kind: transport.Data, Seq: 1 << 40, Attempt: 7,
			Wire: protocol.Wire{From: 1, To: 2, Kind: protocol.ControlWire, Ctrl: 3,
				Tag: []byte{0, 255, 1, 2}, VC: []uint64{9, 0, 1 << 50}}},
		{Src: 0, Dst: 2, Kind: transport.Data, Seq: 2,
			Wire: protocol.Wire{From: 0, To: 2, Kind: protocol.UserWire, Msg: 41,
				Color: event.ColorRed, Tag: []byte("piggyback")}},
	}
	var arena connArena
	for i, e := range cases {
		got, err := decodeEnvelope(encodeEnvelope(e), &arena)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("case %d: round trip = %+v, want %+v", i, got, e)
		}
	}
}

func TestCodecRejectsCorruptFrames(t *testing.T) {
	good := encodeEnvelope(transport.Envelope{Src: 0, Dst: 1, Kind: transport.Data, Seq: 1})
	for _, b := range [][]byte{nil, {0}, {frameEnvelope}, good[:len(good)-1], append(append([]byte{}, good...), 9)} {
		if _, err := decodeEnvelope(b, new(connArena)); err == nil {
			t.Fatalf("decodeEnvelope(%v) accepted corrupt input", b)
		}
	}
	if _, err := decodeHello(encodeEnvelope(transport.Envelope{})); err == nil {
		t.Fatal("decodeHello accepted an envelope frame")
	}
	h := hello{Proc: 2, N: 3, Fingerprint: Fingerprint("causal-rst", "causal-b2", 3)}
	got, err := decodeHello(encodeHello(h))
	if err != nil || got != h {
		t.Fatalf("hello round trip = %+v, %v", got, err)
	}
}

// freePorts reserves n distinct loopback TCP addresses by binding them
// all, then releasing them (another process could still take one before
// the test rebinds it; fine for tests). Released one at a time, the
// kernel now and then hands the same port out twice.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		m, err := NewMesh(MeshConfig{Self: 0, Addrs: []string{"127.0.0.1:0"}}, func([]transport.Envelope) {})
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = m.Addr()
		defer m.Close()
	}
	return addrs
}

// startMeshNodes is the canonical test constructor: pre-pick ports so
// every node knows every address up front.
func startMeshNodes(t *testing.T, n int, maker protocol.Maker, mutate func(i int, cfg *NodeConfig)) []*Node {
	t.Helper()
	addrs := freePorts(t, n)
	fp := Fingerprint("test", "spec", n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := NodeConfig{
			Self:  event.ProcID(i),
			Procs: n,
			Maker: maker,
			Mesh:  MeshConfig{Addrs: addrs, Fingerprint: fp, Seed: int64(i + 1)},
			Transport: transport.Config{
				RTO: 2 * time.Millisecond, MaxRTO: 30 * time.Millisecond,
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		t.Cleanup(func() { node.Close() })
	}
	return nodes
}

// lockstep invokes each message in turn and waits for its delivery at
// the destination before moving on, so the run's user view is fully
// determined by the message list.
func lockstep(t *testing.T, nodes []*Node, msgs []event.Message, perMsg time.Duration) {
	t.Helper()
	want := make([]int, len(nodes))
	for i, node := range nodes {
		want[i] = len(node.Deliveries())
	}
	for _, m := range msgs {
		if err := nodes[m.From].Invoke(m); err != nil {
			t.Fatalf("invoke m%d: %v", m.ID, err)
		}
		want[m.To]++
		if err := nodes[m.To].WaitDeliveries(want[m.To], perMsg); err != nil {
			t.Fatalf("waiting for m%d: %v", m.ID, err)
		}
	}
}

// seededMsgs builds a deterministic unicast workload over n processes.
func seededMsgs(seed int64, n, count int) []event.Message {
	rng := rand.New(rand.NewSource(seed))
	msgs := make([]event.Message, count)
	for i := range msgs {
		from := event.ProcID(rng.Intn(n))
		to := event.ProcID(rng.Intn(n))
		for to == from {
			to = event.ProcID(rng.Intn(n))
		}
		msgs[i] = event.Message{ID: event.MsgID(i), From: from, To: to}
	}
	return msgs
}

// meshView assembles the run's user view from the nodes' local logs.
func meshView(t *testing.T, nodes []*Node, msgs []event.Message) *userview.Run {
	t.Helper()
	procs := make([][]event.Event, len(nodes))
	for i, node := range nodes {
		procs[i] = node.Events()
	}
	v, err := userview.New(msgs, procs)
	if err != nil {
		t.Fatalf("mesh run invalid: %v", err)
	}
	return v
}

func TestThreeNodeCausalLockstep(t *testing.T) {
	nodes := startMeshNodes(t, 3, causal.RSTMaker, nil)
	msgs := seededMsgs(7, 3, 15)
	lockstep(t, nodes, msgs, 5*time.Second)
	v := meshView(t, nodes, msgs)
	if !v.IsComplete() {
		t.Fatal("view incomplete after lockstep run")
	}
	if !v.InCO() {
		t.Fatal("causal protocol produced a non-causal view over TCP")
	}
	for _, node := range nodes {
		if err := node.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLossyMeshStillDeliversExactlyOnce(t *testing.T) {
	inj := transport.NewInjector(transport.FaultPlan{DropRate: 0.25, DupRate: 0.15, Seed: 11})
	nodes := startMeshNodes(t, 3, tagless.Maker, func(i int, cfg *NodeConfig) {
		cfg.Mesh.Injector = inj
	})
	msgs := seededMsgs(13, 3, 30)
	lockstep(t, nodes, msgs, 10*time.Second)
	meshView(t, nodes, msgs) // validates exactly-once (duplicate events fail)
	var retransmits, faults int
	for _, node := range nodes {
		s := node.Stats()
		retransmits += s.Retransmits
	}
	faults = inj.Counters().Total()
	if faults == 0 {
		t.Fatal("injector injected nothing — the lossy cell tested nothing")
	}
	if retransmits == 0 {
		t.Fatal("no retransmissions despite drops: reliable sublayer not engaged")
	}
}

func TestCrashRestartOnMesh(t *testing.T) {
	dir := t.TempDir()
	nodes := startMeshNodes(t, 3, causal.RSTMaker, func(i int, cfg *NodeConfig) {
		cfg.WALPath = filepath.Join(dir, "p"+string(rune('0'+i))+".wal")
		cfg.SnapshotEvery = 6
	})
	msgs := seededMsgs(23, 3, 24)
	mid := len(msgs) / 2
	lockstep(t, nodes, msgs[:mid], 5*time.Second)
	if err := nodes[1].Crash(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	lockstep(t, nodes, msgs[mid:], 10*time.Second)
	v := meshView(t, nodes, msgs)
	if !v.IsComplete() {
		t.Fatal("crash-restart run lost messages")
	}
	if !v.InCO() {
		t.Fatal("causal order broken across the restart")
	}
	s := nodes[1].Stats()
	if s.Crashes != 1 || s.Recoveries != 1 {
		t.Fatalf("crashes/recoveries = %d/%d, want 1/1", s.Crashes, s.Recoveries)
	}
	for _, node := range nodes {
		if err := node.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHandshakeRefusesMismatchedFingerprint(t *testing.T) {
	addrs := freePorts(t, 2)
	good, err := NewNode(NodeConfig{Self: 0, Procs: 2, Maker: tagless.Maker,
		Mesh: MeshConfig{Addrs: addrs, Fingerprint: Fingerprint("tagless", "", 2)}})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	bad, err := NewNode(NodeConfig{Self: 1, Procs: 2, Maker: causal.RSTMaker,
		Mesh: MeshConfig{Addrs: addrs, Fingerprint: Fingerprint("causal-rst", "causal-b2", 2)}})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	// The mismatched node tries to send; the handshake must be refused
	// and surface as a rejection, not retry forever.
	if err := bad.Invoke(event.Message{ID: 0, From: 1, To: 0}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if bad.Err() != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := bad.Err(); !errors.Is(err, ErrRejected) {
		t.Fatalf("mismatched peer error = %v, want ErrRejected", err)
	}
	if got := good.Deliveries(); len(got) != 0 {
		t.Fatalf("mismatched peer delivered %v", got)
	}
}

func TestMeshCountersAndIdleSkips(t *testing.T) {
	reg := obs.NewRegistry()
	nodes := startMeshNodes(t, 2, tagless.Maker, func(i int, cfg *NodeConfig) {
		if i == 0 {
			cfg.Metrics = reg
		}
	})
	msgs := []event.Message{{ID: 0, From: 0, To: 1}, {ID: 1, From: 1, To: 0}}
	lockstep(t, nodes, msgs, 5*time.Second)
	mc := nodes[0].MeshCounters()
	if mc.FramesOut == 0 || mc.FramesIn == 0 {
		t.Fatalf("no frames moved: %+v", mc)
	}
	if mc.BytesOut == 0 || mc.BytesIn == 0 {
		t.Fatalf("no bytes counted: %+v", mc)
	}
	// The idle-skip satellite: after the messages settle, the transport
	// loop parks; both the counter and the metric must show it.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if nodes[0].TransportCounters().IdleSkips > 0 &&
			reg.Counter("transport.retransmit.idle_skips") > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("idle skips not observed: counters=%+v metric=%d",
		nodes[0].TransportCounters(), reg.Counter("transport.retransmit.idle_skips"))
}
