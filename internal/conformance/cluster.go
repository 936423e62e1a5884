// The mesh side of every cross-runtime check is one cell runner. A cell
// is a loopback TCP mesh of Procs processes built from one template:
// each process hosts either a netmesh node or a chanmux mux with one
// channel per ordering domain. drive pushes seeded workloads through
// the cell, in lockstep or open loop, and collect turns each domain's
// recorded events into a validated user view. NetMatrix, MuxMatrix,
// ShardMatrix, ChurnMatrix, RunFleetTraced and RunLoadMesh differ only
// in the template, the hook they run between rounds, and what they
// read off the collected cell.
package conformance

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"msgorder/internal/chanmux"
	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/netmesh"
	"msgorder/internal/obs"
	"msgorder/internal/protocol"
	"msgorder/internal/transport"
	"msgorder/internal/userview"
)

// Retransmission timers for the two drive modes. A lockstep cell waits
// on every message, so a lost envelope stalls the run until it is
// resent: retransmit fast. An open-loop cell runs a clean loopback
// network under queueing delay, where a short timer would misread the
// backlog as loss and resend the whole burst.
var (
	lockstepTransport = transport.Config{RTO: 2 * time.Millisecond, MaxRTO: 30 * time.Millisecond}
	openLoopTransport = transport.Config{RTO: 250 * time.Millisecond, MaxRTO: 2 * time.Second}
)

// LoopbackAddrs reserves n distinct loopback addresses. Every listener
// stays open until the whole set is picked: released one at a time, the
// kernel hands the same port out twice about once in 4 000 three-port
// sets, and the second process to bind it fails with "address already
// in use". It never returns a port a live cell of this process holds.
func LoopbackAddrs(n int) ([]string, error) {
	addrs, err := holdAddrs(n)
	releaseAddrs(addrs)
	return addrs, err
}

// held is the set of loopback ports the live cells of this process own.
// A cell owns its ports from reservation to close, through every gap in
// which none of its processes listens on one — before boot, and after a
// departure, a crash or an eviction — so that concurrent cells cannot
// pick it up: a cell's peers still dial a departed process's port, and
// would reach another cell's node there.
var held = struct {
	sync.Mutex
	ports map[string]bool
}{ports: map[string]bool{}}

// holdAddrs reserves n loopback addresses, as LoopbackAddrs, and holds
// them until releaseAddrs.
func holdAddrs(n int) ([]string, error) {
	held.Lock()
	defer held.Unlock()
	addrs := make([]string, 0, n)
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for len(addrs) < n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		if a := ln.Addr().String(); !held.ports[a] {
			addrs = append(addrs, a)
		}
	}
	for _, a := range addrs {
		held.ports[a] = true
	}
	return addrs, nil
}

// releaseAddrs returns held addresses to the kernel's pool.
func releaseAddrs(addrs []string) {
	held.Lock()
	defer held.Unlock()
	for _, a := range addrs {
		delete(held.ports, a)
	}
}

// endpoint is one process's end of one ordering domain: a netmesh node
// or a chanmux channel.
type endpoint interface {
	Invoke(event.Message) error
	WaitDeliveries(k int, timeout time.Duration) error
	Crash(downtime time.Duration) error
	Deliveries() []event.MsgID
	Events() []event.Event
	Stats() protocol.Stats
	TransportCounters() transport.Counters
	Err() error
}

// cellSpec is a cell's template: what every process of the cell shares.
type cellSpec struct {
	// name prefixes errors and the cell's WAL files; it must be unique
	// among the cells sharing walDir.
	name  string
	procs int
	seed  int64
	// maker builds each node's protocol. A nil maker builds a mux cell
	// instead, with one channel per chans entry.
	maker protocol.Maker
	chans []NetProtocol
	// openLoop drives the cell open loop (invoke everything, then
	// drain) instead of lockstep, and picks the matching RTO.
	openLoop bool
	// wait bounds one lockstep delivery, or the whole open-loop drain.
	wait time.Duration
	inj  *transport.Injector
	// snapshotEvery is the WAL checkpoint cadence; a non-empty walDir
	// makes the journals file-backed.
	snapshotEvery int
	walDir        string
	// tracer, when set, gives every node its own collector (and a
	// metrics registry) built by it.
	tracer    func() *obs.Collector
	onDeliver func(event.MsgID)
	// beat, when positive, runs heartbeats at that period; P0 feeds
	// detector.
	beat     time.Duration
	detector *crash.Detector
}

// cluster is one running cell.
type cluster struct {
	cellSpec
	addrs []string
	nodes []*netmesh.Node
	muxes []*chanmux.Mux
	// eps[d][i] is domain d's endpoint at process i; want[d][i] counts
	// the deliveries it has been driven to.
	eps     [][]endpoint
	want    [][]int
	traces  []*obs.Collector
	metrics []*obs.Registry
}

// newCluster reserves the cell's ports and boots every process; a mux
// cell then opens each domain's channel on every mux.
func newCluster(s cellSpec) (*cluster, error) {
	addrs, err := holdAddrs(s.procs)
	if err != nil {
		return nil, err
	}
	c := &cluster{
		cellSpec: s, addrs: addrs,
		nodes: make([]*netmesh.Node, s.procs), muxes: make([]*chanmux.Mux, s.procs),
		traces: make([]*obs.Collector, s.procs), metrics: make([]*obs.Registry, s.procs),
	}
	domains := len(s.chans)
	if s.maker != nil {
		domains = 1
	}
	for d := 0; d < domains; d++ {
		c.eps = append(c.eps, make([]endpoint, s.procs))
		c.want = append(c.want, make([]int, s.procs))
	}
	for i := 0; i < s.procs; i++ {
		if err := c.boot(i, ""); err != nil {
			c.close()
			return nil, err
		}
	}
	for d, p := range s.chans {
		for i, m := range c.muxes {
			ch, err := m.Open(chanmux.Spec{Name: p.Name, Proto: p.Name})
			if err != nil {
				c.close()
				return nil, fmt.Errorf("%s: P%d open %q: %w", s.name, i, p.Name, err)
			}
			c.eps[d][i] = ch
		}
	}
	return c, nil
}

// walPath is process i's journal: a file for a node, a directory of
// per-channel files for a mux. gen tells a successor's journal from its
// predecessor's.
func (c *cluster) walPath(i int, gen string) string {
	p := filepath.Join(c.walDir, fmt.Sprintf("%s-p%d%s", strings.ReplaceAll(c.name, "/", "-"), i, gen))
	if c.maker != nil {
		p += ".wal"
	}
	return p
}

// boot starts process i from the template. A successor — churn's
// joiner, booting from journal generation gen — takes the slot over,
// and its delivery count starts from zero.
func (c *cluster) boot(i int, gen string) error {
	mesh := netmesh.MeshConfig{
		Addrs: c.addrs, Fingerprint: netmesh.Fingerprint(c.name, "conformance", c.procs),
		Seed: c.seed + int64(i), Injector: c.inj,
	}
	tc := lockstepTransport
	if c.openLoop {
		tc = openLoopTransport
	}
	wal := ""
	if c.walDir != "" {
		wal = c.walPath(i, gen)
	}
	if c.maker == nil {
		if wal != "" {
			if err := os.MkdirAll(wal, 0o755); err != nil {
				return err
			}
		}
		m, err := chanmux.New(chanmux.Config{
			Self: event.ProcID(i), Procs: c.procs, Mesh: mesh, Transport: tc,
			WALDir: wal, SnapshotEvery: c.snapshotEvery,
		})
		if err != nil {
			return fmt.Errorf("%s: P%d: %w", c.name, i, err)
		}
		c.muxes[i] = m
		return nil
	}
	ncfg := netmesh.NodeConfig{
		Self: event.ProcID(i), Procs: c.procs, Maker: c.maker, Mesh: mesh, Transport: tc,
		WALPath: wal, SnapshotEvery: c.snapshotEvery, OnDeliver: c.onDeliver,
	}
	if c.tracer != nil {
		c.traces[i], c.metrics[i] = c.tracer(), obs.NewRegistry()
		ncfg.Tracer, ncfg.Metrics = c.traces[i], c.metrics[i]
	}
	if c.beat > 0 {
		ncfg.Heartbeat = netmesh.HeartbeatConfig{Interval: c.beat}
		if i == 0 {
			ncfg.Heartbeat.Detector = c.detector
		}
	}
	n, err := netmesh.NewNode(ncfg)
	if err != nil {
		return fmt.Errorf("%s: P%d: %w", c.name, i, err)
	}
	c.nodes[i], c.eps[0][i], c.want[0][i] = n, n, 0
	return nil
}

// stop closes process i's node: a departure, until boot refills the
// slot.
func (c *cluster) stop(i int) {
	c.nodes[i].Close()
	c.nodes[i], c.eps[0][i] = nil, nil
}

// close stops every process still running.
func (c *cluster) close() {
	for i, n := range c.nodes {
		if n != nil {
			n.Close()
		}
		if m := c.muxes[i]; m != nil {
			m.Close()
		}
	}
	releaseAddrs(c.addrs)
}

// domain names domain d in errors.
func (c *cluster) domain(d int) string {
	if c.maker == nil {
		return c.name + " " + c.chans[d].Name
	}
	return c.name
}

// drive runs rounds [from, to) of the workloads: round r invokes ws[d][r]
// on every domain d in turn, so shared connections carry mixed traffic.
// Lockstep waits for each message's delivery before the next invoke:
// the run is linearized, and every catalog protocol's view is a pure
// function of the workload. Open loop invokes everything, then drains.
// before, when non-nil, runs ahead of every round: the mid-run crash,
// cut, churn point or scrape.
func (c *cluster) drive(ws [][]event.Message, from, to int, before func(r int) error) error {
	for r := from; r < to; r++ {
		if before != nil {
			if err := before(r); err != nil {
				return fmt.Errorf("%s: round %d: %w", c.name, r, err)
			}
		}
		for d, w := range ws {
			m := w[r]
			if err := c.eps[d][m.From].Invoke(m); err != nil {
				return fmt.Errorf("%s: invoke m%d: %w", c.domain(d), m.ID, err)
			}
			c.want[d][m.To]++
			if !c.openLoop {
				if err := c.await(d, int(m.To), c.wait); err != nil {
					return fmt.Errorf("m%d: %w", m.ID, err)
				}
			}
		}
	}
	if c.openLoop {
		deadline := time.Now().Add(c.wait)
		for d := range ws {
			for i := range c.eps[d] {
				if err := c.await(d, i, time.Until(deadline)); err != nil {
					return fmt.Errorf("drain: %w", err)
				}
			}
		}
	}
	return nil
}

// await waits for domain d's endpoint at process i to deliver what it
// was driven to. A failed wait reports every endpoint's state, so a
// stuck cell names where the traffic stopped, not just who waited.
func (c *cluster) await(d, i int, timeout time.Duration) error {
	err := c.eps[d][i].WaitDeliveries(c.want[d][i], timeout)
	if err == nil {
		return nil
	}
	var b strings.Builder
	for d, eps := range c.eps {
		for i, ep := range eps {
			if ep == nil {
				fmt.Fprintf(&b, "\n  %s P%d down", c.domain(d), i)
				continue
			}
			fmt.Fprintf(&b, "\n  %s P%d delivered %d of %d, transport %+v",
				c.domain(d), i, ep.Stats().Deliveries, c.want[d][i], ep.TransportCounters())
		}
	}
	return fmt.Errorf("%s: %w; cell state:%s", c.domain(d), err, b.String())
}

// tally is one domain's collected outcome.
type tally struct {
	view      *userview.Run
	stats     protocol.Stats
	transport transport.Counters
}

// collect fails on any process's error, then builds domain d's user
// view of msgs and sums its tallies. splice, when non-nil, edits the
// per-process event lists first (churn's departed incarnations).
func (c *cluster) collect(d int, msgs []event.Message, splice func([][]event.Event)) (tally, error) {
	var t tally
	for i, m := range c.muxes {
		if m != nil {
			if err := m.Err(); err != nil {
				return t, fmt.Errorf("%s: P%d: %w", c.name, i, err)
			}
		}
	}
	procEvents := make([][]event.Event, c.procs)
	for i, ep := range c.eps[d] {
		if ep == nil {
			continue
		}
		if err := ep.Err(); err != nil {
			return t, fmt.Errorf("%s: P%d: %w", c.domain(d), i, err)
		}
		procEvents[i] = ep.Events()
		t.stats.Add(ep.Stats())
		t.transport.Add(ep.TransportCounters())
	}
	if splice != nil {
		splice(procEvents)
	}
	v, err := userview.New(msgs, procEvents)
	if err != nil {
		return t, fmt.Errorf("%s: mesh run invalid: %w", c.domain(d), err)
	}
	t.view = v
	return t, nil
}

// cellOutcome is one lockstep matrix cell's result.
type cellOutcome struct {
	domains []tally
	elapsed time.Duration
	mesh    netmesh.Counters
	// drops counts envelopes a mux dropped for lack of an open channel.
	drops uint64
}

// runMatrixCell runs one NetMatrix / MuxMatrix / ShardMatrix cell: the
// workloads driven in lockstep through a mesh under the named
// disturbance, and one tally per domain. lossy injects seeded drop and
// dup; crash-restart checkpoints every 8 journal entries (file-backed
// under cfg.WALDir when set) and restarts every domain's P1 halfway
// through — recovery must be invisible in the final views. P0 is the
// sync protocols' coordinator, so the crash targets P1.
func runMatrixCell(cfg NetMatrixConfig, s cellSpec, cell string, ws [][]event.Message) (*cellOutcome, error) {
	s.procs, s.seed, s.wait = cfg.Procs, cfg.Seed, cfg.PerMsg
	switch cell {
	case "lossy":
		s.inj = transport.NewInjector(transport.FaultPlan{
			DropRate: 0.2, DupRate: 0.1, Seed: cfg.Seed*0x9e3779b9 + 101,
		})
	case "crash-restart":
		s.snapshotEvery, s.walDir = 8, cfg.WALDir
	}
	c, err := newCluster(s)
	if err != nil {
		return nil, err
	}
	defer c.close()
	var crashHalfway func(int) error
	if cell == "crash-restart" {
		crashHalfway = func(r int) error {
			if r != cfg.Msgs/2 {
				return nil
			}
			for _, eps := range c.eps {
				if err := eps[1].Crash(10 * time.Millisecond); err != nil {
					return err
				}
			}
			return nil
		}
	}
	start := time.Now()
	if err := c.drive(ws, 0, cfg.Msgs, crashHalfway); err != nil {
		return nil, err
	}
	out := &cellOutcome{elapsed: time.Since(start)}
	for i, n := range c.nodes {
		if n != nil {
			out.mesh.Add(n.MeshCounters())
		}
		if m := c.muxes[i]; m != nil {
			out.mesh.Add(m.MeshCounters())
			out.drops += m.UnknownDrops()
		}
	}
	for d, w := range ws {
		t, err := c.collect(d, w, nil)
		if err != nil {
			return nil, err
		}
		out.domains = append(out.domains, t)
	}
	return out, nil
}
