package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/causal"
	"msgorder/internal/protocols/fifo"
	"msgorder/internal/snapio"
)

// referenceSnapshot is the encoding the cache must reproduce: every
// live instance encoded afresh in key order, with no cache consulted —
// the pre-cache Snapshot, kept as the test's oracle. Each inner
// Snapshot reuses the buffer its instance keeps, which a clean
// domain's cache points at, so a caller takes the cached encoding
// before calling this.
func referenceSnapshot(p *Process) []byte {
	keys := make([]event.Key, 0, len(p.doms))
	for k := range p.doms {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var w snapio.Writer
	w.Byte(snapVersion)
	w.Int(len(keys))
	for _, k := range keys {
		w.U64(uint64(k))
		w.Bytes(p.doms[k].inst.(protocol.Snapshotter).Snapshot())
	}
	return w.Out()
}

// propEnv is one process's environment in the property test: outputs
// are logged (the journal's output entries) and, unless the process is
// replaying, sends join the shared in-flight pool.
type propEnv struct {
	self      event.ProcID
	n         int
	net       *[]protocol.Wire
	replaying bool
	outputs   []string
	delivered map[event.MsgID]int
}

func (e *propEnv) Self() event.ProcID { return e.self }
func (e *propEnv) NumProcs() int      { return e.n }
func (e *propEnv) Deliver(id event.MsgID) {
	e.outputs = append(e.outputs, fmt.Sprintf("deliver %d", id))
	if !e.replaying {
		e.delivered[id]++
	}
}
func (e *propEnv) Send(w protocol.Wire) {
	w.From = e.self
	e.outputs = append(e.outputs, fmt.Sprintf("send %+v", w))
	if !e.replaying {
		*e.net = append(*e.net, w)
	}
}

// propProc is one process with the crash harness's bookkeeping: the
// latest checkpoint and the handler inputs journaled since.
type propProc struct {
	env    *propEnv
	inst   *snapProcess
	ckpt   []byte
	inputs []func(protocol.Process)
}

// TestSnapshotCacheMatchesFreshEncode drives seeded random invoke /
// receive / broadcast / checkpoint / crash-restart interleavings over
// 256 keys and asserts the cached Snapshot is byte-identical to a
// from-scratch encode of the live instances, survives a restore into a
// fresh process, and that restore-then-replay re-emits the journaled
// outputs and lands on the live state. "every-step" checks after each
// handler input; "sparse" checks only at checkpoints and restarts, so
// dirty sets of every size accumulate between two Snapshot calls.
func TestSnapshotCacheMatchesFreshEncode(t *testing.T) {
	inners := map[string]protocol.Maker{"fifo": fifo.Maker, "causal-rst": causal.RSTMaker}
	for name, inner := range inners {
		for _, mode := range []string{"every-step", "sparse"} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", name, mode, seed), func(t *testing.T) {
					runSnapshotCacheProperty(t, inner, mode == "every-step", seed)
				})
			}
		}
	}
}

func runSnapshotCacheProperty(t *testing.T, inner protocol.Maker, everyStep bool, seed int64) {
	const (
		procs = 3
		nkeys = 256
		steps = 3000
	)
	rng := rand.New(rand.NewSource(seed))
	maker := New(inner)
	var net []protocol.Wire
	ps := make([]*propProc, procs)
	for i := range ps {
		env := &propEnv{self: event.ProcID(i), n: procs, net: &net, delivered: map[event.MsgID]int{}}
		ps[i] = &propProc{env: env, inst: maker().(*snapProcess)}
		ps[i].inst.Init(env)
	}
	keys := make([]event.Key, nkeys)
	for i := range keys {
		keys[i] = event.KeyOf(fmt.Sprintf("prop-%d-%d", seed, i))
	}

	// matches compares the cached encoding with the oracle. It copies
	// the cached encoding out before the oracle runs: the oracle's inner
	// Snapshot calls rewrite the buffers a clean domain's cache points
	// at, and would otherwise refresh a stale cache in place.
	matches := func(p *propProc) []byte {
		t.Helper()
		got := bytes.Clone(p.inst.Snapshot())
		want := referenceSnapshot(p.inst.Process)
		if !bytes.Equal(got, want) {
			t.Fatalf("P%d: cached Snapshot (%d bytes) differs from a fresh encode (%d bytes)", p.env.self, len(got), len(want))
		}
		return got
	}
	// check also round-trips the encoding through a fresh process.
	check := func(p *propProc) []byte {
		t.Helper()
		got := matches(p)
		fresh := maker().(*snapProcess)
		fresh.Init(&propEnv{self: p.env.self, n: procs, replaying: true})
		if err := fresh.Restore(got); err != nil {
			t.Fatalf("P%d: restore: %v", p.env.self, err)
		}
		if again := fresh.Snapshot(); !bytes.Equal(again, got) {
			t.Fatalf("P%d: snapshot -> restore -> snapshot is not byte-identical", p.env.self)
		}
		return got
	}
	// input applies one handler input and journals it.
	input := func(p *propProc, in func(protocol.Process)) {
		in(p.inst)
		p.inputs = append(p.inputs, in)
		if everyStep {
			matches(p)
		}
	}
	// checkpoint keeps a copy, as the WAL does: the encoding belongs
	// to the instance and the next Snapshot overwrites it.
	checkpoint := func(p *propProc) {
		p.ckpt, p.inputs, p.env.outputs = bytes.Clone(check(p)), nil, nil
	}
	// restart is the crash harness's recovery: a fresh incarnation
	// restores the checkpoint, replays the journaled inputs with sends
	// and deliveries suppressed, and must re-emit the same outputs and
	// reach the crashed incarnation's state; it then takes over.
	restart := func(p *propProc) {
		live, journaled := referenceSnapshot(p.inst.Process), p.env.outputs
		p.env.replaying, p.env.outputs = true, nil
		next := maker().(*snapProcess)
		next.Init(p.env)
		if p.ckpt != nil {
			if err := next.Restore(p.ckpt); err != nil {
				t.Fatalf("P%d: restart restore: %v", p.env.self, err)
			}
		}
		for _, in := range p.inputs {
			in(next)
		}
		if !slices.Equal(p.env.outputs, journaled) {
			t.Fatalf("P%d: replay emitted %d outputs, journal holds %d, or they differ", p.env.self, len(p.env.outputs), len(journaled))
		}
		p.env.replaying, p.inst = false, next
		if got := check(p); !bytes.Equal(got, live) {
			t.Fatalf("P%d: replayed state differs from the crashed incarnation's", p.env.self)
		}
	}
	receive := func() {
		i := rng.Intn(len(net))
		w := net[i]
		net[i] = net[len(net)-1]
		net = net[:len(net)-1]
		input(ps[w.To], func(in protocol.Process) { in.OnReceive(w) })
	}

	nextID := event.MsgID(0)
	for step := 0; step < steps; step++ {
		p := ps[rng.Intn(procs)]
		switch r := rng.Intn(100); {
		case r < 35:
			m := event.Message{ID: nextID, From: p.env.self, To: event.ProcID(rng.Intn(procs)), Key: keys[rng.Intn(nkeys)]}
			nextID++
			input(p, func(in protocol.Process) { in.OnInvoke(m) })
		case r < 45:
			// One copy per process, the copies spread over two keys so
			// OnBroadcast's per-key grouping is exercised.
			ks := [2]event.Key{keys[rng.Intn(nkeys)], keys[rng.Intn(nkeys)]}
			msgs := make([]event.Message, procs)
			for to := range msgs {
				msgs[to] = event.Message{ID: nextID, From: p.env.self, To: event.ProcID(to), Key: ks[to%2]}
				nextID++
			}
			input(p, func(in protocol.Process) { in.(protocol.Broadcaster).OnBroadcast(msgs) })
		case r < 85:
			if len(net) > 0 {
				receive()
			}
		case r < 95:
			checkpoint(p)
		default:
			restart(p)
		}
	}
	for len(net) > 0 {
		receive()
	}
	domains := 0
	for _, p := range ps {
		restart(p)
		domains = max(domains, p.inst.Keys())
	}
	for id := event.MsgID(0); id < nextID; id++ {
		if n := ps[0].env.delivered[id] + ps[1].env.delivered[id] + ps[2].env.delivered[id]; n != 1 {
			t.Fatalf("message %d delivered %d times", id, n)
		}
	}
	if domains < 200 {
		t.Fatalf("only %d domains instantiated, want at least 200", domains)
	}
}
