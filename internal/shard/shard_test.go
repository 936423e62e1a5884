package shard

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/fifo"
	"msgorder/internal/snapio"
)

// stubEnv is a harness-free protocol environment: sends are captured,
// deliveries recorded in order.
type stubEnv struct {
	self      event.ProcID
	n         int
	sent      []protocol.Wire
	delivered []event.MsgID
}

func (e *stubEnv) Self() event.ProcID { return e.self }
func (e *stubEnv) NumProcs() int      { return e.n }
func (e *stubEnv) Deliver(id event.MsgID) {
	e.delivered = append(e.delivered, id)
}
func (e *stubEnv) Send(w protocol.Wire) {
	w.From = e.self
	e.sent = append(e.sent, w)
}

func TestOfDeterministicInRangeAndSpread(t *testing.T) {
	const shards = 8
	counts := make([]int, shards)
	for i := 0; i < 100000; i++ {
		k := event.Key(i)
		s := Of(k, shards)
		if s != Of(k, shards) {
			t.Fatalf("Of(%d) not deterministic", i)
		}
		if s < 0 || s >= shards {
			t.Fatalf("Of(%d) = %d out of range", i, s)
		}
		counts[s]++
	}
	for s, c := range counts {
		// Uniform would be 12500; the mix must keep every shard within a
		// loose band even though input keys are consecutive integers.
		if c < 10000 || c > 15000 {
			t.Fatalf("shard %d got %d of 100000 keys — sequential keys not spread", s, c)
		}
	}
	if Of(event.KeyOf("x"), 1) != 0 || Of(event.KeyOf("x"), 0) != 0 {
		t.Fatal("degenerate shard counts must map to shard 0")
	}
}

func TestRingCoverageAndStability(t *testing.T) {
	const keys = 50000
	r4 := NewRing(4, 0)
	if r4.Daemons() != 4 {
		t.Fatalf("Daemons() = %d, want 4", r4.Daemons())
	}
	counts := make([]int, 4)
	for i := 0; i < keys; i++ {
		d := r4.Daemon(event.Key(i))
		if d < 0 || d >= 4 {
			t.Fatalf("key %d routed to daemon %d", i, d)
		}
		counts[d]++
	}
	for d, c := range counts {
		if c < keys/20 {
			t.Fatalf("daemon %d owns only %d of %d keys — ring badly unbalanced", d, c, keys)
		}
	}
	// Consistent hashing's point: growing the fleet re-homes only a
	// fraction of the keyspace (~1/n ideally), not all of it.
	r5 := NewRing(5, 0)
	moved := 0
	for i := 0; i < keys; i++ {
		if r4.Daemon(event.Key(i)) != r5.Daemon(event.Key(i)) {
			moved++
		}
	}
	if frac := float64(moved) / keys; frac > 0.5 {
		t.Fatalf("adding one daemon re-homed %.0f%% of keys — not consistent hashing", frac*100)
	}
	// And it must be deterministic across constructions.
	again := NewRing(4, 0)
	for i := 0; i < 1000; i++ {
		if r4.Daemon(event.Key(i)) != again.Daemon(event.Key(i)) {
			t.Fatal("two rings over the same daemons disagree")
		}
	}
}

// TestCrossKeyIndependence is the sharding invariant in its purest
// form: a domain blocked on an out-of-order arrival (fifo holds the
// wire) must not delay another domain's delivery by a single step.
func TestCrossKeyIndependence(t *testing.T) {
	maker := New(fifo.Maker)
	kA, kB := event.KeyOf("A"), event.KeyOf("B")

	senderEnv := &stubEnv{self: 0, n: 2}
	sender := maker()
	sender.Init(senderEnv)
	sender.OnInvoke(event.Message{ID: 0, From: 0, To: 1, Key: kA})
	sender.OnInvoke(event.Message{ID: 1, From: 0, To: 1, Key: kA})
	sender.OnInvoke(event.Message{ID: 2, From: 0, To: 1, Key: kB})
	if len(senderEnv.sent) != 3 {
		t.Fatalf("sender produced %d wires, want 3", len(senderEnv.sent))
	}
	for i, k := range []event.Key{kA, kA, kB} {
		if senderEnv.sent[i].Key != k {
			t.Fatalf("wire %d carries key %#x, want %#x", i, uint64(senderEnv.sent[i].Key), uint64(k))
		}
	}

	recvEnv := &stubEnv{self: 1, n: 2}
	recv := maker()
	recv.Init(recvEnv)
	// Key A's second message arrives first: its domain holds it.
	recv.OnReceive(senderEnv.sent[1])
	if len(recvEnv.delivered) != 0 {
		t.Fatal("out-of-order wire delivered")
	}
	// Key B must deliver immediately despite A's backlog.
	recv.OnReceive(senderEnv.sent[2])
	if len(recvEnv.delivered) != 1 || recvEnv.delivered[0] != 2 {
		t.Fatalf("key B blocked behind key A: delivered %v", recvEnv.delivered)
	}
	// A's missing head unblocks its domain.
	recv.OnReceive(senderEnv.sent[0])
	want := []event.MsgID{2, 0, 1}
	if len(recvEnv.delivered) != 3 {
		t.Fatalf("delivered %v, want %v", recvEnv.delivered, want)
	}
	for i, id := range want {
		if recvEnv.delivered[i] != id {
			t.Fatalf("delivered %v, want %v", recvEnv.delivered, want)
		}
	}
}

// TestBulkSnapshotRestore checkpoints thousands of lazily created
// domains and restores them into a fresh process: the re-snapshot must
// be byte-identical and sequencing state must survive per key.
func TestBulkSnapshotRestore(t *testing.T) {
	const domains = 3000
	maker := New(fifo.Maker)
	env := &stubEnv{self: 0, n: 2}
	p := maker()
	p.Init(env)
	keys := make([]event.Key, domains)
	for i := range keys {
		keys[i] = event.KeyOf(fmt.Sprintf("bulk-%d", i))
		p.OnInvoke(event.Message{ID: event.MsgID(i), From: 0, To: 1, Key: keys[i]})
	}
	if n := p.(interface{ Keys() int }).Keys(); n != domains {
		t.Fatalf("instantiated %d domains, want %d", n, domains)
	}
	snap := p.(protocol.Snapshotter).Snapshot()

	fresh := maker()
	fresh.Init(&stubEnv{self: 0, n: 2})
	if err := fresh.(protocol.Snapshotter).Restore(snap); err != nil {
		t.Fatal(err)
	}
	if n := fresh.(interface{ Keys() int }).Keys(); n != domains {
		t.Fatalf("restore rebuilt %d domains, want %d", n, domains)
	}
	again := fresh.(protocol.Snapshotter).Snapshot()
	if !bytes.Equal(snap, again) {
		t.Fatal("snapshot -> restore -> snapshot is not byte-identical")
	}
	// Sequencing continues where the checkpoint left off: the restored
	// domain's next wire to P1 carries seq 1, not 0.
	freshEnv := &stubEnv{self: 0, n: 2}
	fresh.Init(freshEnv)
	if err := fresh.(protocol.Snapshotter).Restore(snap); err != nil {
		t.Fatal(err)
	}
	fresh.OnInvoke(event.Message{ID: domains, From: 0, To: 1, Key: keys[0]})
	recv := maker()
	recvEnv := &stubEnv{self: 1, n: 2}
	recv.Init(recvEnv)
	recv.OnReceive(freshEnv.sent[0])
	if len(recvEnv.delivered) != 0 {
		t.Fatal("post-restore wire delivered at seq 0 — per-key sender state was lost")
	}
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	maker := New(fifo.Maker)
	p := maker()
	p.Init(&stubEnv{self: 0, n: 2})
	if err := p.(protocol.Snapshotter).Restore([]byte{99}); err == nil {
		t.Fatal("wrong version accepted")
	}
	snap := p.(protocol.Snapshotter).Snapshot()
	if err := p.(protocol.Snapshotter).Restore(append(snap, 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// One valid domain record listed twice: the second would shadow the
	// first in the key order.
	p.OnInvoke(event.Message{ID: 0, From: 0, To: 1, Key: 5})
	one := p.(protocol.Snapshotter).Snapshot()
	dup := append([]byte{snapVersion, 2}, one[2:]...)
	dup = append(dup, one[2:]...)
	if err := p.(protocol.Snapshotter).Restore(dup); !errors.Is(err, snapio.ErrCorrupt) || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate key: %v", err)
	}
	// A count the blob cannot hold must fail before anything is sized by it.
	if err := p.(protocol.Snapshotter).Restore([]byte{snapVersion, 0xFF, 0xFF, 0xFF, 0x07}); !errors.Is(err, snapio.ErrCorrupt) {
		t.Fatalf("oversized count: %v", err)
	}
}

// notSnapshottable is a minimal inner protocol without checkpointing.
type notSnapshottable struct{ env protocol.Env }

func (p *notSnapshottable) Init(env protocol.Env) { p.env = env }
func (p *notSnapshottable) OnInvoke(m event.Message) {
	p.env.Send(protocol.Wire{To: m.To, Kind: protocol.UserWire, Msg: m.ID})
}
func (p *notSnapshottable) OnReceive(w protocol.Wire) { p.env.Deliver(w.Msg) }

func TestDescribeAndSnapshotterPropagation(t *testing.T) {
	sharded := New(fifo.Maker)()
	d, ok := sharded.(protocol.Describer)
	if !ok {
		t.Fatal("sharded process lost Describer")
	}
	if got := d.Describe(); got.Name != "sharded(fifo)" || got.Class != protocol.Tagged {
		t.Fatalf("Describe() = %+v", got)
	}
	if _, ok := sharded.(protocol.Snapshotter); !ok {
		t.Fatal("sharded fifo lost Snapshotter")
	}
	plain := New(func() protocol.Process { return &notSnapshottable{} })()
	if _, ok := plain.(protocol.Snapshotter); ok {
		t.Fatal("sharded non-snapshotter falsely advertises Snapshotter")
	}
}
