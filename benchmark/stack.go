package main

// Every construction of a type of the program under test lives in this
// file, so a change to how the program is wired (a transport rewrite,
// internal/host, key/channel unification) needs a paired benchmark
// change here and nowhere else. Configuration is the shipped daemon's
// (cmd/mod defaults) with the two pins the README explains:
// SnapshotEvery = 64 and a 1 s RTO on clean workloads.

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"msgorder/internal/catalog"
	"msgorder/internal/chanmux"
	"msgorder/internal/check"
	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/netmesh"
	"msgorder/internal/obs"
	"msgorder/internal/predicate"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/registry"
	"msgorder/internal/shard"
	"msgorder/internal/spec"
	"msgorder/internal/transport"
	"msgorder/internal/userview"
)

const snapshotEvery = 64

// transportConfig is the reliable sublayer's pin: where nothing is
// lost, an RTO no stall of the machine outlasts (the shipped 3 ms storms
// under paced load, and 250 ms still did whenever the process was held
// for 400 ms); a short one where loss is the point.
func transportConfig(w workload) transport.Config {
	if w.lossy {
		return transport.Config{RTO: 20 * time.Millisecond, MaxRTO: 160 * time.Millisecond}
	}
	return transport.Config{RTO: time.Second, MaxRTO: 4 * time.Second}
}

// protoEntries returns the registry entries of the protocols the
// workload runs: one, or one per mux channel.
func protoEntries(w workload) ([]registry.Entry, error) {
	names := []string{w.proto}
	if len(w.chans) > 0 {
		names = names[:0]
		for _, c := range w.chans {
			names = append(names, chanProtos[c][0])
		}
	}
	entries := make([]registry.Entry, len(names))
	for i, name := range names {
		e, ok := registry.ByName(name)
		if !ok {
			return nil, fmt.Errorf("protocol %q not in the registry", name)
		}
		entries[i] = e
	}
	return entries, nil
}

// nodeMaker wraps a protocol maker the way the workload's nodes run it:
// under the ordering-key demux on a keyed workload, bare otherwise.
func nodeMaker(w workload, e registry.Entry) protocol.Maker {
	if w.keys > 0 {
		return shard.New(e.Maker)
	}
	return e.Maker
}

// domainKeys names the keyed workloads' ordering domains.
func domainKeys(n int) []event.Key {
	keys := make([]event.Key, n)
	for i := range keys {
		keys[i] = event.KeyOf(fmt.Sprintf("domain-%d", i))
	}
	return keys
}

// nextPort is where reservePorts looks next. Listen ports are taken
// from below the kernel's ephemeral range and never reused within a
// process: a port the kernel handed out for the asking ("127.0.0.1:0")
// can be taken again, between the probe and the node's own bind, as the
// source port of an earlier node's outgoing dial — one boot in eighty
// of the 8-process mesh failed that way.
var nextPort = 10000 + os.Getpid()%20000

const ephemeralLow = 32768 // Linux's default ip_local_port_range floor

// reservePorts picks n free loopback addresses.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	for tries := 0; len(addrs) < n; tries++ {
		if tries > 4096 {
			return nil, fmt.Errorf("no free loopback port below %d", ephemeralLow)
		}
		if nextPort >= ephemeralLow {
			nextPort = 10000
		}
		addr := fmt.Sprintf("127.0.0.1:%d", nextPort)
		nextPort++
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		ln.Close()
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

// counterID indexes the public counters a stack sums over its
// processes.
type counterID int

const (
	cFramesOut counterID = iota
	cEnvelopesOut
	cBytesOut
	cRedials
	cFaults
	cRetransmits
	cDupsDropped
	cAcks
	cCumAcked
	cUserMsgs
	cCtrlMsgs
	cTagBytes
	cWALAppends
	cWALFlushes
	cWALFlushed
	cPoolGets
	cPoolMisses
	cUnknownDrops
	numCounters
)

type counters [numCounters]int64

func (a counters) sub(b counters) counters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// stack is one freshly booted mesh of the workload's shape, measured
// only through public functions and counters.
type stack struct {
	w      workload
	keys   []event.Key
	nodes  []*netmesh.Node
	muxes  []*chanmux.Mux
	chans  [][]*chanmux.Channel // [channel][process]
	walDir string
	// Channels number their messages independently: local[i] is message
	// i's ID within its channel, global[c][id] the way back.
	local  []int32
	global [][]int32
}

// deliverTracer is the mux workload's delivery hook: chanmux has no
// OnDeliver, so delivery instants come from an obs.Tracer that keeps
// only OpDeliver — the path `mod -mux` ships with tracing on.
type deliverTracer struct {
	chanIdx   map[string]int
	global    [][]int32
	onDeliver func(int)
	next      obs.Tracer // traced rounds also fill a collector
}

func (t *deliverTracer) Emit(r obs.Record) {
	if r.Op == obs.OpDeliver {
		if c, ok := t.chanIdx[r.Chan]; ok && r.Msg >= 0 && int(r.Msg) < len(t.global[c]) {
			t.onDeliver(int(t.global[c][r.Msg]))
		}
	}
	if t.next != nil {
		t.next.Emit(r)
	}
}

// tracedCollector is the daemon-style capped collector a traced round
// gives every process (nil when untraced).
func tracedCollector(traced bool) (obs.Tracer, *obs.Registry) {
	if !traced {
		return nil, nil
	}
	return obs.NewCollectorCap(1 << 10), obs.NewRegistry()
}

// bootStack constructs the workload's processes over loopback TCP.
// onDeliver is called with a message's index on every delivery, from
// the delivering process's handler goroutine. tmp is a directory the
// stack may create WAL files under. seed drives the reconnect jitter
// and the lossy workload's drop pattern; the caller varies it by round,
// so that whether a drop lands in the boot phase is a per-round chance
// the median absorbs, not a property of the whole run.
func bootStack(w workload, p *plan, seed int64, traced bool, tmp string, onDeliver func(int)) (*stack, error) {
	s := &stack{w: w}
	addrs, err := reservePorts(w.procs)
	if err != nil {
		return nil, err
	}
	if w.wal {
		if s.walDir, err = os.MkdirTemp(tmp, "wal-"); err != nil {
			return nil, err
		}
	}
	injector := func(i int) *transport.Injector {
		if !w.lossy {
			return nil
		}
		return transport.NewInjector(transport.FaultPlan{DropRate: 0.01, Seed: seed*0x9e3779b9 + 101 + int64(i)})
	}
	if len(w.chans) > 0 {
		if err := s.bootMux(p, seed, traced, addrs, injector, onDeliver); err != nil {
			return nil, err
		}
		return s, nil
	}

	entries, err := protoEntries(w)
	if err != nil {
		s.close()
		return nil, err
	}
	maker, name := nodeMaker(w, entries[0]), entries[0].Name
	if w.keys > 0 {
		s.keys = domainKeys(w.keys)
		name = "sharded-" + name
	}
	fp := netmesh.Fingerprint(name, "bench", w.procs)
	s.nodes = make([]*netmesh.Node, w.procs)
	for i := range s.nodes {
		cfg := netmesh.NodeConfig{
			Self:          event.ProcID(i),
			Procs:         w.procs,
			Maker:         maker,
			Mesh:          netmesh.MeshConfig{Addrs: addrs, Fingerprint: fp, Seed: seed + int64(i), Injector: injector(i)},
			Transport:     transportConfig(w),
			SnapshotEvery: snapshotEvery,
			OnDeliver:     func(id event.MsgID) { onDeliver(int(id)) },
		}
		if w.wal {
			cfg.WALPath = filepath.Join(s.walDir, fmt.Sprintf("p%d.wal", i))
			cfg.WALGroupCommit = &crash.GroupCommit{}
		}
		cfg.Tracer, cfg.Metrics = tracedCollector(traced)
		n, err := netmesh.NewNode(cfg)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		s.nodes[i] = n
	}
	return s, nil
}

func (s *stack) bootMux(p *plan, seed int64, traced bool, addrs []string, injector func(int) *transport.Injector, onDeliver func(int)) error {
	w := s.w
	s.local = make([]int32, len(p.msgs))
	s.global = make([][]int32, len(w.chans))
	for i, m := range p.msgs {
		s.local[i] = int32(len(s.global[m.dom]))
		s.global[m.dom] = append(s.global[m.dom], int32(i))
	}
	chanIdx := make(map[string]int, len(w.chans))
	for c, name := range w.chans {
		chanIdx[name] = c
	}
	s.muxes = make([]*chanmux.Mux, w.procs)
	s.chans = make([][]*chanmux.Channel, len(w.chans))
	for c := range s.chans {
		s.chans[c] = make([]*chanmux.Channel, w.procs)
	}
	for i := range s.muxes {
		next, metrics := tracedCollector(traced)
		m, err := chanmux.New(chanmux.Config{
			Self:          event.ProcID(i),
			Procs:         w.procs,
			Mesh:          netmesh.MeshConfig{Addrs: addrs, Seed: seed + int64(i), Injector: injector(i)},
			Transport:     transportConfig(w),
			SnapshotEvery: snapshotEvery,
			Tracer:        &deliverTracer{chanIdx: chanIdx, global: s.global, onDeliver: onDeliver, next: next},
			Metrics:       metrics,
		})
		if err != nil {
			s.close()
			return fmt.Errorf("mux %d: %w", i, err)
		}
		s.muxes[i] = m
		for c, name := range w.chans {
			ch, err := m.Open(chanmux.Spec{Name: name, Proto: chanProtos[name][0], Spec: chanProtos[name][1]})
			if err != nil {
				s.close()
				return fmt.Errorf("mux %d: %w", i, err)
			}
			s.chans[c][i] = ch
		}
	}
	return nil
}

// invoke submits message i of the plan at its source process.
func (s *stack) invoke(i int, m msg) error {
	em := event.Message{ID: event.MsgID(i), From: event.ProcID(m.from), To: event.ProcID(m.to)}
	switch {
	case s.chans != nil:
		em.ID = event.MsgID(s.local[i])
		return s.chans[m.dom][m.from].Invoke(em)
	case s.keys != nil:
		em.Key = s.keys[m.dom]
	}
	return s.nodes[m.from].Invoke(em)
}

// each visits every protocol-hosting node: one per process, or one per
// (channel, process) under a mux.
func (s *stack) each(visit func(stats protocol.Stats, tr transport.Counters)) {
	for _, n := range s.nodes {
		visit(n.Stats(), n.TransportCounters())
	}
	for _, procs := range s.chans {
		for _, ch := range procs {
			if ch != nil {
				visit(ch.Stats(), ch.TransportCounters())
			}
		}
	}
}

// counters sums the public counters of every process.
func (s *stack) counters() counters {
	var c counters
	addMesh := func(mc netmesh.Counters) {
		c[cFramesOut] += int64(mc.FramesOut)
		c[cEnvelopesOut] += int64(mc.EnvelopesOut)
		c[cBytesOut] += int64(mc.BytesOut)
		c[cRedials] += int64(mc.Redials)
		c[cFaults] += int64(mc.FaultsInjected)
	}
	for _, n := range s.nodes {
		addMesh(n.MeshCounters())
		ws := n.WALStats()
		c[cWALAppends] += int64(ws.Appends)
		c[cWALFlushes] += int64(ws.Flushes)
		c[cWALFlushed] += int64(ws.FlushedEntries)
	}
	for _, m := range s.muxes {
		if m != nil {
			addMesh(m.MeshCounters())
			c[cUnknownDrops] += int64(m.UnknownDrops())
		}
	}
	s.each(func(st protocol.Stats, tr transport.Counters) {
		c[cRetransmits] += int64(tr.Retransmits)
		c[cDupsDropped] += int64(tr.DupsDropped)
		c[cAcks] += int64(tr.AcksReceived)
		c[cCumAcked] += int64(tr.CumAcked)
		c[cUserMsgs] += int64(st.UserMessages)
		c[cCtrlMsgs] += int64(st.ControlMessages)
		c[cTagBytes] += int64(st.UserTagBytes)
	})
	pool := netmesh.CodecPoolStats()
	c[cPoolGets], c[cPoolMisses] = int64(pool.Gets), int64(pool.Misses)
	return c
}

// pending is the number of unacknowledged envelopes mesh-wide (chanmux
// does not expose its channels' count, so a mux reports 0).
func (s *stack) pending() int {
	total := 0
	for _, n := range s.nodes {
		total += n.Pending()
	}
	return total
}

// stalled says whether a workload on which nothing is lost saw a
// retransmission or a redial ("" if not).
func (s *stack) stalled() string {
	if s.w.lossy {
		return ""
	}
	c := s.counters()
	if c[cRetransmits] == 0 && c[cRedials] == 0 {
		return ""
	}
	return fmt.Sprintf("%d retransmits and %d redials on a clean workload", c[cRetransmits], c[cRedials])
}

// err returns the first process failure.
func (s *stack) err() error {
	for i, n := range s.nodes {
		if err := n.Err(); err != nil {
			return fmt.Errorf("P%d: %w", i, err)
		}
	}
	for i, m := range s.muxes {
		if m == nil {
			continue
		}
		if err := m.Err(); err != nil {
			return fmt.Errorf("P%d: %w", i, err)
		}
	}
	return nil
}

// deliveries returns, per destination process, the plan indices of the
// messages delivered there in delivery order (channel after channel
// under a mux: channels are independent streams).
func (s *stack) deliveries() [][]int {
	seqs := make([][]int, s.w.procs)
	for i, n := range s.nodes {
		for _, id := range n.Deliveries() {
			seqs[i] = append(seqs[i], int(id))
		}
	}
	for c, procs := range s.chans {
		for i, ch := range procs {
			for _, id := range ch.Deliveries() {
				g := -1
				if id >= 0 && int(id) < len(s.global[c]) {
					g = int(s.global[c][id])
				}
				seqs[i] = append(seqs[i], g)
			}
		}
	}
	return seqs
}

// crashP0 crash-restarts process 0 with the default downtime and
// returns a function reporting whether the new incarnation is live.
func (s *stack) crashP0() (recovered func() bool, err error) {
	n := s.nodes[0]
	before := n.Stats().Recoveries
	if err := n.Crash(0); err != nil {
		return nil, err
	}
	return func() bool { return n.Stats().Recoveries > before }, nil
}

func (s *stack) close() {
	for _, n := range s.nodes {
		if n != nil {
			n.Close()
		}
	}
	for _, m := range s.muxes {
		if m != nil {
			m.Close()
		}
	}
	if s.walDir != "" {
		os.RemoveAll(s.walDir)
	}
}

// preflight is the full-specification check of round 0: the run so far
// (msgs, all delivered) is rebuilt as a user view and searched for a
// match of the protocol's forbidden predicate — per key on a keyed
// stack, per channel on a mux.
func (s *stack) preflight(msgs []msg) error {
	if s.chans != nil {
		for c, name := range s.w.chans {
			ce, ok := catalog.ByName(chanProtos[name][1])
			if !ok {
				return fmt.Errorf("channel %s: no catalog spec %q", name, chanProtos[name][1])
			}
			var list []event.Message
			for _, i := range s.global[c] {
				if int(i) >= len(msgs) {
					break
				}
				m := msgs[i]
				list = append(list, event.Message{ID: event.MsgID(len(list)), From: event.ProcID(m.from), To: event.ProcID(m.to)})
			}
			evs := make([][]event.Event, s.w.procs)
			for i, ch := range s.chans[c] {
				evs[i] = ch.Events()
			}
			if err := checkView(list, evs, ce.Pred, false); err != nil {
				return fmt.Errorf("channel %s: %w", name, err)
			}
		}
		return nil
	}
	entries, err := protoEntries(s.w)
	if err != nil {
		return err
	}
	list := make([]event.Message, len(msgs))
	for i, m := range msgs {
		list[i] = event.Message{ID: event.MsgID(i), From: event.ProcID(m.from), To: event.ProcID(m.to)}
		if s.keys != nil {
			list[i].Key = s.keys[m.dom]
		}
	}
	evs := make([][]event.Event, s.w.procs)
	for i, n := range s.nodes {
		evs[i] = n.Events()
	}
	return checkView(list, evs, entries[0].Pred(), s.keys != nil)
}

func checkView(list []event.Message, evs [][]event.Event, pred *predicate.Predicate, perKey bool) error {
	view, err := userview.New(list, evs)
	if err != nil {
		return fmt.Errorf("user view invalid: %w", err)
	}
	if !view.IsComplete() {
		return fmt.Errorf("user view incomplete: a sent message was not delivered")
	}
	if pred == nil {
		return nil
	}
	if perKey {
		sp, err := spec.New("preflight", pred)
		if err != nil {
			return err
		}
		if v, bad := sp.CheckPerKey(view); bad {
			return fmt.Errorf("specification violated in key %#x: %s", uint64(v.Key), v.Match.String(pred))
		}
		return nil
	}
	if m, bad := check.FindViolation(view, pred); bad {
		return fmt.Errorf("specification violated: %s", m.String(pred))
	}
	return nil
}

// The constructors below serve the layer replay (layers.go), which
// drives one layer at a time through its public functions.

// newWAL opens the workload's kind of journal: a file under dir with
// group commit, or memory.
func newWAL(w workload, dir string) (*crash.WAL, error) {
	if !w.wal {
		return crash.NewWAL(), nil
	}
	f, err := os.CreateTemp(dir, "replay-*.wal")
	if err != nil {
		return nil, err
	}
	f.Close()
	wal, err := crash.OpenFileWAL(f.Name())
	if err != nil {
		return nil, err
	}
	wal.EnableGroupCommit(crash.GroupCommit{})
	return wal, nil
}

// newMeshPair connects two bare mesh endpoints, 0 and 1, with the
// default MeshConfig. rcvB also gets a function that sends from 1.
func newMeshPair(seed int64, rcvA func([]transport.Envelope), rcvB func([]transport.Envelope, func(transport.Envelope))) (a, b *netmesh.Mesh, err error) {
	addrs, err := reservePorts(2)
	if err != nil {
		return nil, nil, err
	}
	cfg := netmesh.MeshConfig{Addrs: addrs, Fingerprint: netmesh.Fingerprint("replay", "bench", 2), Seed: seed}
	if a, err = netmesh.NewMesh(cfg, rcvA); err != nil {
		return nil, nil, err
	}
	// b's callback can fire before NewMesh has returned b.
	var self atomic.Pointer[netmesh.Mesh]
	cfg.Self = 1
	b, err = netmesh.NewMesh(cfg, func(envs []transport.Envelope) {
		rcvB(envs, func(e transport.Envelope) {
			if m := self.Load(); m != nil {
				m.Send(e)
			}
		})
	})
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	self.Store(b)
	return a, b, nil
}

// newProbe builds the observability probe a traced node runs: a capped
// collector, a registry, a microsecond timebase.
func newProbe(w workload) *obs.Probe {
	tracer, metrics := tracedCollector(true)
	start := time.Now()
	return obs.NewProbe(w.procs, tracer, metrics, "replay", func() int64 { return time.Since(start).Microseconds() })
}
