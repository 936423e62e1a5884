package main

// The layer replay: after the traced round, each layer is driven alone
// through its public functions on the workload's own seeded stream, so
// its cost per call can be set against the end-to-end CPU per message.
// Program types are built by the constructors in stack.go.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/transport"
)

// timed runs fn and returns its wall time, the process CPU time and the
// heap allocations it made.
func timed(fn func()) (wallNs, cpu int64, mallocs uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuNs(), nowNs()
	fn()
	wallNs, cpu = nowNs()-t0, cpuNs()-c0
	runtime.ReadMemStats(&m1)
	return wallNs, cpu, m1.Mallocs - m0.Mallocs
}

// replayStream is the seeded stream the replay feeds each layer:
// the workload's generator, n messages long.
func replayStream(w workload, seed int64, keys []event.Key, n int) []event.Message {
	raw := appendStream(nil, w, rand.New(rand.NewSource(seed)), n)
	out := make([]event.Message, n)
	for i, m := range raw {
		out[i] = event.Message{ID: event.MsgID(i), From: event.ProcID(m.from), To: event.ProcID(m.to)}
		if keys != nil {
			out[i].Key = keys[m.dom]
		}
	}
	return out
}

// memNet is the in-memory protocol.Env of the handler replay: sends
// queue up for the replay loop, deliveries are counted.
type memNet struct {
	queue     []protocol.Wire
	delivered int
	procs     int
}

type memEnv struct {
	net  *memNet
	self event.ProcID
}

func (e *memEnv) Self() event.ProcID { return e.self }
func (e *memEnv) NumProcs() int      { return e.net.procs }
func (e *memEnv) Deliver(event.MsgID) {
	e.net.delivered++
}
func (e *memEnv) Send(w protocol.Wire) {
	w.From = e.self
	e.net.queue = append(e.net.queue, w)
}

// handlerCost is what driving a protocol's handlers alone costs.
type handlerCost struct {
	nsPerMsg, allocsPerMsg float64
	wiresPerMsg            float64
	insts                  []protocol.Process
	sample                 protocol.Wire // a late user wire, for the layers below
}

// replayHandlers pushes msgs through procs instances of maker: each
// message's OnInvoke, then OnReceive for every wire until quiet.
func replayHandlers(maker protocol.Maker, procs int, msgs []event.Message) (handlerCost, error) {
	net := &memNet{procs: procs}
	hc := handlerCost{insts: make([]protocol.Process, procs)}
	for i := range hc.insts {
		hc.insts[i] = maker()
		hc.insts[i].Init(&memEnv{net: net, self: event.ProcID(i)})
	}
	wires := 0
	wall, _, mallocs := timed(func() {
		for _, m := range msgs {
			hc.insts[m.From].OnInvoke(m)
			for head := 0; head < len(net.queue); head++ {
				w := net.queue[head]
				if w.Kind == protocol.UserWire {
					hc.sample = w
				}
				hc.insts[w.To].OnReceive(w)
			}
			wires += len(net.queue)
			net.queue = net.queue[:0]
		}
	})
	if net.delivered != len(msgs) {
		return hc, fmt.Errorf("handler replay delivered %d of %d messages", net.delivered, len(msgs))
	}
	n := float64(len(msgs))
	hc.nsPerMsg, hc.allocsPerMsg, hc.wiresPerMsg = float64(wall)/n, float64(mallocs)/n, float64(wires)/n
	return hc, nil
}

// snapshotCalls is how often a snapshot function is timed: its cost is
// the median, which a stall of the machine does not move.
const snapshotCalls = 51

// medianUs is the median time of snapshotCalls calls of fn, and fn's
// last result.
func medianUs(fn func() []byte) (float64, []byte) {
	var snap []byte
	times := make([]float64, snapshotCalls)
	for i := range times {
		t0 := nowNs()
		snap = fn()
		times[i] = float64(nowNs()-t0) / 1e3
	}
	return median(times), snap
}

// snapshotUs is the median time of inst's Snapshot (0 if it cannot
// snapshot), and the encoding.
func snapshotUs(inst protocol.Process) (float64, []byte) {
	s, ok := inst.(protocol.Snapshotter)
	if !ok {
		return 0, nil
	}
	return medianUs(s.Snapshot)
}

// replayTransport drives the reliable sublayer's per-envelope path the
// way a node pair does — Wrap at the sender, Accept and CumAckFor at
// the receiver, Ack back at the sender — and times SnapshotState with
// one process's share of the window pending.
func replayTransport(w workload, msgs []event.Message, sample protocol.Wire) (nsPerEnv, allocsPerEnv, snapUs float64, snap []byte) {
	noop := func(transport.Envelope) {}
	snd := transport.NewReliable(transportConfig(w), noop)
	rcv := transport.NewReliable(transportConfig(w), noop)
	defer snd.Close()
	defer rcv.Close()
	wall, _, mallocs := timed(func() {
		for _, m := range msgs {
			env := snd.Wrap(m.From, m.To, sample)
			rcv.Accept(env)
			snd.Ack(rcv.CumAckFor(env))
		}
	})
	for _, m := range msgs[:min(max(w.window/w.procs, 1), len(msgs))] {
		snd.Wrap(m.From, m.To, sample)
	}
	snapUs, snap = medianUs(snd.SnapshotState)
	n := float64(len(msgs))
	return float64(wall) / n, float64(mallocs) / n, snapUs, snap
}

// replayWAL appends n entries to the workload's kind of journal (file
// with group commit, or memory) and checkpoints every snapshotEvery,
// as a node does. It returns the mean cost of each.
func replayWAL(w workload, dir string, sample protocol.Wire, snap []byte, n int) (appendNs, checkpointUs float64, err error) {
	wal, err := newWAL(w, dir)
	if err != nil {
		return 0, 0, err
	}
	defer wal.Close()
	var ckptNs int64
	ckpts := 0
	wall, _, _ := timed(func() {
		for i := 0; i < n && err == nil; i++ {
			err = wal.Append(crash.Entry{Kind: crash.EntryReceive, Wire: sample, Seq: uint64(i)})
			if wal.SinceCheckpoint() >= snapshotEvery && err == nil {
				t0 := nowNs()
				err = wal.Checkpoint(snap)
				ckptNs += nowNs() - t0
				ckpts++
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return float64(wall-ckptNs) / float64(n), float64(ckptNs) / 1e3 / float64(max(ckpts, 1)), nil
}

// replayMesh measures the socket layer alone between two endpoints:
// CPU and allocations per envelope with the sender saturated, then the
// round trip of a single envelope on an idle connection.
func replayMesh(w workload, seed int64, sample protocol.Wire, n int) (cpuNsPerEnv, allocsPerEnv, rttUs float64, err error) {
	var got atomic.Int64
	wake := make(chan struct{}, 1) // one token: a coalescing wake-up, as in generator
	poke := func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	a, b, err := newMeshPair(seed,
		func(envs []transport.Envelope) { got.Add(int64(len(envs))); poke() },
		func(envs []transport.Envelope, reply func(transport.Envelope)) {
			for _, e := range envs {
				if e.Kind == transport.Beat { // the idle probe: bounce it
					reply(transport.Envelope{Src: 1, Dst: 0, Kind: transport.Beat})
				}
			}
			got.Add(int64(len(envs)))
			poke()
		})
	if err != nil {
		return 0, 0, 0, err
	}
	defer a.Close()
	defer b.Close()
	timeout := time.NewTimer(20 * time.Second)
	defer timeout.Stop()
	waitFor := func(target int64) error {
		for got.Load() < target {
			select {
			case <-wake:
			case <-timeout.C:
				return fmt.Errorf("mesh replay stalled at %d of %d envelopes", got.Load(), target)
			}
		}
		return nil
	}
	// Each ping is one envelope at b and one back at a. Until the two
	// connections are up a ping may be lost, so the first is retried.
	ping := transport.Envelope{Src: 0, Dst: 1, Kind: transport.Beat}
	for got.Load() < 2 {
		a.Send(ping)
		select {
		case <-wake:
		case <-time.After(5 * time.Millisecond):
		case <-timeout.C:
			return 0, 0, 0, fmt.Errorf("mesh replay: endpoints never connected")
		}
	}
	time.Sleep(20 * time.Millisecond) // let retried pings land
	rtts := make([]float64, 300)
	for i := range rtts {
		base := got.Load()
		t0 := nowNs()
		a.Send(ping)
		if err := waitFor(base + 2); err != nil {
			return 0, 0, 0, err
		}
		rtts[i] = float64(nowNs()-t0) / 1e3
	}
	rttUs = median(rtts)

	const inFlight = 4096 // bounds the sender's outbox, far above one batch
	data := transport.Envelope{Src: 0, Dst: 1, Kind: transport.Data, Wire: sample}
	base := got.Load()
	_, cpu, mallocs := timed(func() {
		for i := 0; i < n && err == nil; i++ {
			if int64(i)-(got.Load()-base) >= inFlight {
				err = waitFor(base + int64(i-inFlight+1))
			}
			data.Seq = uint64(i + 1)
			a.Send(data)
		}
		if err == nil {
			err = waitFor(base + int64(n))
		}
	})
	return float64(cpu) / float64(n), float64(mallocs) / float64(n), rttUs, err
}

// replayProbe times the observability probe's four lifecycle calls per
// message into a daemon-style capped collector and registry.
func replayProbe(w workload, msgs []event.Message, sample protocol.Wire) float64 {
	p := newProbe(w)
	wall, _, _ := timed(func() {
		for _, m := range msgs {
			wire := sample
			wire.From, wire.To, wire.Msg, wire.Key = m.From, m.To, m.ID, m.Key
			p.Invoke(m)
			p.Send(&wire)
			p.Receive(wire)
			p.Deliver(m.To, m.ID)
		}
	})
	return float64(wall) / float64(len(msgs))
}

// replayLayers runs every layer's replay and returns the per-layer
// metrics it yields, plus the summed replayed cost per message that
// runtime.residual_us_per_msg is taken against. cv holds the counter
// metrics of the measured rounds (envelopes and journal appends per
// message scale the per-call costs).
func replayLayers(w workload, seed int64, tmp string, cv values, sp *spans) (values, float64, error) {
	root := sp.begin("replay", -1)
	defer sp.end(root)
	out := values{}
	n := 50000
	if w.hops > 1 {
		n = 5000 // control round trips make each message several times dearer
	}
	entries, err := protoEntries(w)
	if err != nil {
		return nil, 0, err
	}
	var keys []event.Key
	if w.keys > 0 {
		keys = domainKeys(w.keys)
	}
	msgs := replayStream(w, seed, keys, n)

	// protocols (+ shard): mean over the workload's protocols.
	span := sp.begin("protocols.handlers", root)
	var bare handlerCost
	var protoSnapUs float64
	var protoSnap []byte
	for _, e := range entries {
		hc, err := replayHandlers(e.Maker, w.procs, msgs)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", e.Name, err)
		}
		us, snap := snapshotUs(hc.insts[0])
		k := float64(len(entries))
		bare.nsPerMsg += hc.nsPerMsg / k
		bare.allocsPerMsg += hc.allocsPerMsg / k
		bare.wiresPerMsg += hc.wiresPerMsg / k
		protoSnapUs += us / k
		bare.sample, protoSnap = hc.sample, snap
	}
	sp.end(span)
	out["protocols.handler_ns_per_msg"] = value{bare.nsPerMsg, n}
	out["protocols.handler_allocs_per_msg"] = value{bare.allocsPerMsg, n}
	out["protocols.snapshot_us"] = value{protoSnapUs, snapshotCalls}
	sample := bare.sample

	var shardNs float64
	if w.keys > 0 {
		span = sp.begin("shard.demux", root)
		hc, err := replayHandlers(nodeMaker(w, entries[0]), w.procs, msgs)
		if err != nil {
			return nil, 0, fmt.Errorf("sharded %s: %w", entries[0].Name, err)
		}
		us, snap := snapshotUs(hc.insts[0])
		sp.end(span)
		shardNs = hc.nsPerMsg - bare.nsPerMsg
		out["shard.demux_ns_per_msg"] = value{shardNs, n}
		out["shard.demux_allocs_per_msg"] = value{hc.allocsPerMsg - bare.allocsPerMsg, n}
		out["shard.snapshot_us"] = value{us, snapshotCalls}
		out["shard.snapshot_bytes"] = value{float64(len(snap)), 1}
		sample, protoSnap, protoSnapUs = hc.sample, snap, us
	}

	span = sp.begin("transport.wrap-accept-ack", root)
	trNs, trAllocs, trSnapUs, trSnap := replayTransport(w, msgs, sample)
	sp.end(span)
	out["transport.wrap_accept_ns_per_env"] = value{trNs, n}
	out["transport.allocs_per_env"] = value{trAllocs, n}
	out["transport.snapshot_us"] = value{trSnapUs, snapshotCalls}

	span = sp.begin("crash.wal", root)
	walNs, ckptUs, err := replayWAL(w, tmp, sample, append(protoSnap, trSnap...), n)
	sp.end(span)
	if err != nil {
		return nil, 0, err
	}
	out["crash.wal_append_ns_per_entry"] = value{walNs, n}
	out["crash.checkpoint_us"] = value{ckptUs, n / snapshotEvery}

	span = sp.begin("netmesh.mesh", root)
	meshNs, meshAllocs, rttUs, err := replayMesh(w, seed, sample, 4*n)
	sp.end(span)
	if err != nil {
		return nil, 0, err
	}
	out["netmesh.mesh_ns_per_env"] = value{meshNs, 4 * n}
	out["netmesh.mesh_allocs_per_env"] = value{meshAllocs, 4 * n}
	out["netmesh.mesh_idle_rtt_us"] = value{rttUs, 300}

	span = sp.begin("obs.probe", root)
	out["obs.probe_ns_per_msg"] = value{replayProbe(w, msgs, sample), n}
	sp.end(span)

	// What the replayed layers explain of one message's CPU: handlers
	// (and demux) once, the reliable sublayer once per data envelope,
	// the socket path once per envelope of any kind, the journal once
	// per append, and every snapshotEvery appends one checkpoint — the
	// protocol's and the transport's snapshots plus the journal's copy.
	appends := cv["crash.wal_appends_per_msg"].v
	explainedNs := bare.nsPerMsg + shardNs +
		trNs*bare.wiresPerMsg +
		meshNs*cv["netmesh.envelopes_per_msg"].v +
		appends*walNs +
		appends/snapshotEvery*(protoSnapUs+trSnapUs+ckptUs)*1e3
	return out, explainedNs / 1e3, nil
}
