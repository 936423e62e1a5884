// Node hosts one process of a protocol instance on top of the mesh:
// the same process host (internal/host) the in-memory sim runs, fed by
// an inbox loop instead of a mailbox goroutine. All protocol handlers
// run on that single goroutine (invokes from the local client,
// envelopes from the mesh), so the paper's per-process serialization
// holds without protocol-side locking. Every arriving data envelope is
// accepted (dedup) and re-acked; the host journals inputs before their
// handler runs, checkpoints the protocol together with the reliable
// sublayer's state, and rebuilds a crashed instance by checkpoint
// restore plus journal replay with output-divergence verification.
package netmesh

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/host"
	"msgorder/internal/obs"
	"msgorder/internal/protocol"
	"msgorder/internal/transport"
)

// Node errors.
var (
	// ErrProtocol reports a protocol contract violation (capability,
	// addressing) or a failed recovery (host.ErrReplayDiverged, ...).
	ErrProtocol = errors.New("netmesh: protocol error")
	// ErrClosed reports use of a closed node.
	ErrClosed = errors.New("netmesh: node closed")
)

// Fingerprint derives the handshake fingerprint for a mesh of n
// processes running the named protocol under the given spec: every
// field that must agree for a cross-process run to make sense. A
// channel-multiplexing daemon fingerprints proto "mux" with a
// channel-independent spec — channels open and close dynamically, so
// per-channel agreement is the symmetric-open contract, not the
// handshake's job.
func Fingerprint(proto, spec string, n int) string {
	return fmt.Sprintf("momesh3|n=%d|proto=%s|spec=%s", n, proto, spec)
}

// NodeConfig configures one protocol-hosting node.
type NodeConfig struct {
	// Self is this process's id; Procs the mesh size.
	Self  event.ProcID
	Procs int
	// Maker builds the protocol instance (fresh per incarnation).
	Maker protocol.Maker
	// Mesh configures the socket layer. Self is forced to NodeConfig's;
	// Fingerprint should come from Fingerprint().
	Mesh MeshConfig
	// Transport tunes the reliable sublayer (zero value = defaults).
	Transport transport.Config
	// WALPath, when non-empty, makes the journal file-backed so it
	// would survive an OS-process restart; empty keeps it in memory.
	WALPath string
	// SnapshotEvery checkpoints a Snapshotter protocol each time this
	// many WAL entries accumulate (0 = never; recovery replays all).
	SnapshotEvery int
	// WALGroupCommit, when non-nil, batches the journal's file writes
	// (crash.GroupCommit); the in-memory replay mirror stays immediate.
	WALGroupCommit *crash.GroupCommit
	// OnDeliver, when non-nil, is called from the handler goroutine on
	// every live delivery (not during replay) — the load runner's
	// latency probe. It must be fast and must not call back into the
	// node.
	OnDeliver func(event.MsgID)
	// Heartbeat, when enabled, wires a failure detector into the node.
	Heartbeat HeartbeatConfig
	// Tracer and Metrics, when non-nil, instrument the node.
	Tracer  obs.Tracer
	Metrics *obs.Registry
	// ProbeLabel, when non-empty, overrides the protocol name as the
	// probe's histogram label. The channel-multiplexing daemon sets it
	// per channel ("causal-rst@orders") so two channels running the same
	// protocol keep separable latency and inhibition histograms in the
	// shared registry.
	ProbeLabel string
}

// HeartbeatConfig runs a liveness beat loop on the node: every
// Interval the node sends one transport.Beat envelope to each peer —
// through the mesh, so the fault injector's partitions and one-way
// cuts starve them exactly like data traffic — and records its own
// liveness on Detector; arriving beats feed Detector.Beat with their
// sender. Beats are unsequenced, unacked and never journaled: losing
// one is the failure signal, not a fault to mask. Zero Interval or
// nil Detector disables the loop.
type HeartbeatConfig struct {
	// Interval is the beat period.
	Interval time.Duration
	// Detector, when non-nil, accumulates beats at this node's vantage
	// and publishes suspicions — set it on the observer node driving
	// administrative eviction. Nodes with a nil Detector still send
	// beats (so observers can watch them) but ignore arriving ones.
	Detector *crash.Detector
}

// inbox item kinds.
const (
	itemInvoke = iota
	itemBatch
	itemCrash
	itemRestart
)

type nodeItem struct {
	kind int
	msg  event.Message
	// envs counts an itemBatch's envelopes: the next envs of the
	// inbox's flat envelope queue.
	envs     int
	downtime time.Duration
}

// inbox is the node's unbounded input queue; close drains first. A
// batch's envelopes are copied into one flat queue the inbox keeps, so
// a caller may reuse its slice once push returns. The handler takes
// everything queued at once and hands the arrays it took back on its
// next take, cleared: a double buffer whose capacity is reused, so a
// warm inbox allocates nothing.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []nodeItem
	envs   []transport.Envelope
	closed bool
}

func newInbox() *inbox {
	q := &inbox{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push queues it; for an itemBatch, envs are its envelopes.
func (q *inbox) push(it nodeItem, envs []transport.Envelope) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if it.kind == itemBatch {
		q.envs = append(q.envs, envs...)
		it.envs = len(envs)
	}
	q.items = append(q.items, it)
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// take blocks until something is queued (or the inbox is closed and
// drained, when it reports false), then swaps the whole queue out for
// the arrays of the previous take, which it clears so they pin no
// payload.
func (q *inbox) take(items []nodeItem, envs []transport.Envelope) ([]nodeItem, []transport.Envelope, bool) {
	clear(items)
	clear(envs)
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return items[:0], envs[:0], false
	}
	items, q.items = q.items, items[:0]
	envs, q.envs = q.envs, envs[:0]
	return items, envs, true
}

func (q *inbox) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Node is one live process of a protocol instance on the mesh. A node
// normally owns its mesh endpoint (NewNode); a channel-multiplexing
// host instead builds one node per channel over a shared mesh
// (NewMuxNode) — then mesh is nil and every outbound envelope goes
// through the host's send hook, which stamps the channel ID.
type Node struct {
	cfg   NodeConfig
	proto string

	mesh  *Mesh // nil for channel nodes hosted over a shared mesh
	send  func(transport.Envelope)
	tr    *transport.Reliable
	wal   *crash.WAL
	sink  *obs.Sink
	probe *obs.Probe
	q     *inbox

	// Handler-goroutine state (no locking needed).
	host        *host.Host
	down        bool
	heldInvokes []event.Message // invokes arriving during downtime
	// ackHi is handleBatch's per-source scratch, indexed by ProcID:
	// 1 + the batch index of the source's highest-sequence data
	// envelope, 0 for none. Zero between batches.
	ackHi []int32

	// downPub mirrors the handler goroutine's down flag for the beat
	// goroutine: a crashed incarnation must fall silent.
	downPub  atomic.Bool
	beatStop chan struct{}

	mu sync.Mutex
	// progress is what WaitDeliveries sleeps on: signalled when err is
	// first set and when stats.Deliveries reaches wakeAt, the smallest
	// count a sleeper is waiting for (0: none) — so an open-loop run
	// wakes its waiter once, not once per message.
	progress *sync.Cond
	wakeAt   int
	log      userLog // user-visible events at Self, in local order
	stats    protocol.Stats
	err      error
	timers   []*time.Timer
	closed   bool

	wg sync.WaitGroup
}

// Chunk capacities of a userLog, in events: the first chunk is small so
// that a node that only boots, or a lightly used channel, pays almost
// nothing; each next chunk doubles, up to the cap.
const (
	logChunkMin = 64
	logChunkMax = 4096
)

// userLog is one process's user-visible history — its sends and
// delivers, in local order — stored once. It is a list of chunks that
// are never copied or reallocated once made: appending costs one
// allocation per chunk filled, and readers copy out.
type userLog struct {
	chunks [][]event.Event
	n      int
}

// add appends e.
func (l *userLog) add(e event.Event) {
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == cap(l.chunks[last]) {
		size := logChunkMin
		if last >= 0 {
			size = min(2*cap(l.chunks[last]), logChunkMax)
		}
		l.chunks = append(l.chunks, make([]event.Event, 0, size))
		last++
	}
	l.chunks[last] = append(l.chunks[last], e)
	l.n++
}

// events returns a fresh copy of the whole log (nil when empty).
func (l *userLog) events() []event.Event {
	if l.n == 0 {
		return nil
	}
	out := make([]event.Event, 0, l.n)
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}

// deliveries returns a fresh copy of the log's k deliveries, in order
// (nil when k is 0).
func (l *userLog) deliveries(k int) []event.MsgID {
	if k == 0 {
		return nil
	}
	out := make([]event.MsgID, 0, k)
	for _, c := range l.chunks {
		for _, e := range c {
			if e.Kind == event.Deliver {
				out = append(out, e.Msg)
			}
		}
	}
	return out
}

// sendWire tallies a wire the host has checked, journaled and probed,
// and hands it to the reliable sublayer.
func (n *Node) sendWire(w protocol.Wire) {
	n.mu.Lock()
	if w.Kind == protocol.UserWire {
		n.stats.UserMessages++
		n.stats.UserTagBytes += len(w.Tag)
		n.log.add(event.E(w.Msg, event.Send))
	} else {
		n.stats.ControlMessages++
		n.stats.ControlBytes += len(w.Tag)
	}
	n.mu.Unlock()
	n.send(n.tr.Wrap(n.cfg.Self, w.To, w))
}

// deliver records a delivery the host has journaled and probed, and
// wakes WaitDeliveries sleepers whose count it reaches.
func (n *Node) deliver(id event.MsgID) {
	n.mu.Lock()
	n.log.add(event.E(id, event.Deliver))
	n.stats.Deliveries++
	wake := n.wakeAt != 0 && n.stats.Deliveries >= n.wakeAt
	if wake {
		n.wakeAt = 0
	}
	n.mu.Unlock()
	if wake {
		n.progress.Broadcast()
	}
	if n.cfg.OnDeliver != nil {
		n.cfg.OnDeliver(id)
	}
}

// NewNode starts a node: mesh listener up, protocol instance
// initialized, handler loop running.
func NewNode(cfg NodeConfig) (*Node, error) {
	return newNode(cfg, nil)
}

// NewMuxNode starts a node that hosts one multiplexed channel's
// protocol instance over a carrier the caller owns, instead of binding
// its own mesh endpoint: every outbound envelope (data, ack, journaled
// re-send, heartbeat) goes through send — which must stamp the
// channel's ID and hand the envelope to the shared mesh — and the
// caller demultiplexes arriving envelopes into the node with
// HandleEnvelopes. Everything else (per-process handler serialization,
// reliable sublayer, WAL journaling, checkpoint restore and replay
// verification) is byte-for-byte the standalone node's, which is what
// makes a multiplexed channel's user view indistinguishable from a
// single-spec deployment's. cfg.Mesh is ignored.
func NewMuxNode(cfg NodeConfig, send func(transport.Envelope)) (*Node, error) {
	if send == nil {
		return nil, fmt.Errorf("netmesh: NewMuxNode needs a send hook")
	}
	return newNode(cfg, send)
}

// newNode builds a node; a nil send means the node owns a mesh
// endpoint built from cfg.Mesh.
func newNode(cfg NodeConfig, send func(transport.Envelope)) (*Node, error) {
	if cfg.Procs <= 0 || int(cfg.Self) < 0 || int(cfg.Self) >= cfg.Procs {
		return nil, fmt.Errorf("netmesh: bad node identity %d/%d", cfg.Self, cfg.Procs)
	}
	n := &Node{cfg: cfg, q: newInbox(), send: send, ackHi: make([]int32, cfg.Procs)}
	n.progress = sync.NewCond(&n.mu)
	if cfg.Tracer != nil || cfg.Metrics != nil {
		start := time.Now()
		n.sink = &obs.Sink{Tracer: cfg.Tracer, Metrics: cfg.Metrics,
			Now: func() int64 { return time.Since(start).Microseconds() }}
		// The fleet observability plane rebases each process's Step
		// timebase (µs since node start) onto a shared wall-clock axis
		// using this gauge, so cross-process latency segments compare.
		cfg.Metrics.Gauge(obs.TimebaseGauge, start.UnixMicro())
	}
	if cfg.WALPath != "" {
		w, err := crash.OpenFileWAL(cfg.WALPath)
		if err != nil {
			return nil, fmt.Errorf("netmesh: open WAL: %w", err)
		}
		n.wal = w
	} else {
		n.wal = crash.NewWAL()
	}

	inst := cfg.Maker()
	if d, ok := inst.(protocol.Describer); ok {
		n.proto = d.Describe().Name
	}
	if n.sink != nil {
		label := n.proto
		if cfg.ProbeLabel != "" {
			label = cfg.ProbeLabel
		}
		n.probe = obs.NewProbe(cfg.Procs, cfg.Tracer, cfg.Metrics, label, n.sink.Now)
	}

	tcfg := cfg.Transport
	if tcfg.Obs == nil {
		tcfg.Obs = n.sink
	}
	if cfg.WALGroupCommit != nil {
		n.wal.EnableGroupCommit(*cfg.WALGroupCommit)
	}
	if n.send == nil {
		mcfg := cfg.Mesh
		mcfg.Self = cfg.Self
		if mcfg.Obs == nil {
			mcfg.Obs = n.sink
		}
		if inj := mcfg.Injector; inj != nil && n.sink != nil {
			inj.Observe(n.sink)
		}
		mesh, err := NewMesh(mcfg, n.HandleEnvelopes)
		if err != nil {
			n.wal.Close()
			return nil, err
		}
		n.mesh = mesh
		n.send = mesh.Send
	}
	n.tr = transport.NewReliable(tcfg, n.send)
	n.host = host.New(host.Config{
		Self: cfg.Self, Procs: cfg.Procs, WAL: n.wal, SnapshotEvery: cfg.SnapshotEvery,
		RuntimeState: n.tr.SnapshotState, Sink: n.sink, Probe: n.probe,
		Send: n.sendWire, Deliver: n.deliver,
		Fail: func(err error) { n.fail(fmt.Errorf("%w: %w", ErrProtocol, err)) },
	})

	if err := n.boot(inst); err != nil {
		n.tr.Close()
		if n.mesh != nil {
			n.mesh.Close()
		}
		n.wal.Close()
		return nil, err
	}

	n.wg.Add(1)
	go n.run()
	if hb := cfg.Heartbeat; hb.Interval > 0 {
		n.beatStop = make(chan struct{})
		n.wg.Add(1)
		go n.runBeats(hb)
	}
	return n, nil
}

// runBeats is the heartbeat loop: every interval, record own liveness
// and fan one Beat envelope out to every peer. A crashed incarnation
// falls silent until its restart.
func (n *Node) runBeats(hb HeartbeatConfig) {
	defer n.wg.Done()
	t := time.NewTicker(hb.Interval)
	defer t.Stop()
	for {
		select {
		case <-n.beatStop:
			return
		case <-t.C:
		}
		if n.downPub.Load() {
			continue
		}
		if hb.Detector != nil {
			hb.Detector.Beat(n.cfg.Self)
		}
		for p := 0; p < n.cfg.Procs; p++ {
			if event.ProcID(p) == n.cfg.Self {
				continue
			}
			n.send(transport.Envelope{Src: n.cfg.Self, Dst: event.ProcID(p), Kind: transport.Beat})
		}
	}
}

// boot brings the first incarnation live. With a fresh journal that is
// just Init. When the configured WALPath already holds a previous
// OS-process incarnation's journal, boot instead performs a durable
// restart: the host restores the checkpoint and replays the journal
// suffix with output verification; the checkpoint's runtime part
// restores the reliable sublayer's sequence/dedup state; then the
// suffix's transport effects are re-applied — journaled receives
// re-enter the dedup tables so peer retransmits of already-accepted
// wires are dropped, and journaled sends are re-wrapped (the restored
// sequence counters reproduce the original seqnums) and retransmitted,
// which the peer's own dedup absorbs if it had already accepted them.
// Without this, a restarted daemon's sender counters reset to zero (the
// peer drops all new sends as duplicates) and its receiver high-water
// marks regress (old wires get delivered twice).
func (n *Node) boot(inst protocol.Process) error {
	snap, entries := n.wal.Replay()
	if snap == nil && len(entries) == 0 {
		n.host.Boot(inst)
		return nil
	}
	trSnap, replayed, err := n.host.Recover(inst, snap, entries, time.Time{})
	if err != nil {
		return fmt.Errorf("%w: %w", ErrProtocol, err)
	}
	if snap != nil {
		if err := n.tr.RestoreState(trSnap); err != nil {
			return fmt.Errorf("%w: P%d transport restore: %v", ErrProtocol, n.cfg.Self, err)
		}
	}
	// Re-apply the journal suffix's transport effects in journal order,
	// so sequence assignment matches the pre-crash incarnation exactly.
	for _, en := range entries {
		switch en.Kind {
		case crash.EntryReceive:
			n.tr.MarkAccepted(en.Wire.From, n.cfg.Self, en.Seq)
		case crash.EntrySend:
			n.send(n.tr.Wrap(n.cfg.Self, en.Wire.To, en.Wire))
		}
	}
	n.mu.Lock()
	n.stats.Recoveries++
	n.stats.ReplayedEvents += replayed
	n.mu.Unlock()
	return nil
}

// Addr returns the mesh listener's bound address ("" for a channel
// node hosted over a shared mesh).
func (n *Node) Addr() string {
	if n.mesh == nil {
		return ""
	}
	return n.mesh.Addr()
}

// HandleEnvelopes feeds arriving envelopes into the node's inbox as one
// batch: the entry point a channel-multiplexing host uses after
// demultiplexing a frame batch by channel ID. The inbox copies the
// envelopes, so the caller may reuse envs once the call returns.
func (n *Node) HandleEnvelopes(envs []transport.Envelope) {
	n.q.push(nodeItem{kind: itemBatch}, envs)
}

// Self returns the hosted process's ID.
func (n *Node) Self() event.ProcID { return n.cfg.Self }

// Procs returns the mesh size.
func (n *Node) Procs() int { return n.cfg.Procs }

// Proto returns the hosted protocol's descriptor name ("" if the
// protocol is not a Describer).
func (n *Node) Proto() string { return n.proto }

// Invoke submits a user message originating here. The caller owns
// MsgID assignment (the run's global numbering); m.From must be Self.
// Invokes arriving while the node is crashed queue up and drain in the
// next incarnation, like a daemon's client requests would.
func (n *Node) Invoke(m event.Message) error {
	if m.From != n.cfg.Self {
		return fmt.Errorf("%w: invoke of m%d at P%d, From = %d", ErrProtocol, m.ID, n.cfg.Self, m.From)
	}
	if int(m.To) < 0 || int(m.To) >= n.cfg.Procs || m.To == m.From {
		return fmt.Errorf("%w: invoke of m%d to %d", ErrProtocol, m.ID, m.To)
	}
	if !n.q.push(nodeItem{kind: itemInvoke, msg: m}, nil) {
		return ErrClosed
	}
	return nil
}

// Crash tears the protocol instance down (protocol-layer crash: the
// mesh and the transport's network-global ack bookkeeping stay up, as
// in the sim, whose documented semantics are that seqnums survive a
// restart). After downtime the node restores the latest checkpoint,
// replays the journal suffix, verifies the outputs, and goes live.
func (n *Node) Crash(downtime time.Duration) error {
	if downtime <= 0 {
		downtime = 25 * time.Millisecond
	}
	if !n.q.push(nodeItem{kind: itemCrash, downtime: downtime}, nil) {
		return ErrClosed
	}
	return nil
}

// Deliveries returns the local delivery order so far.
func (n *Node) Deliveries() []event.MsgID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.log.deliveries(n.stats.Deliveries)
}

// Events returns the user-visible events (sends and delivers) recorded
// at this process, in local order.
func (n *Node) Events() []event.Event {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.log.events()
}

// Stats returns the protocol tallies with the transport and injector
// counters folded in.
func (n *Node) Stats() protocol.Stats {
	n.mu.Lock()
	s := n.stats
	n.mu.Unlock()
	tc := n.tr.Counters()
	s.Retransmits = tc.Retransmits
	s.DupsDropped = tc.DupsDropped
	if inj := n.cfg.Mesh.Injector; inj != nil {
		s.FaultsInjected = inj.Counters().Total()
	}
	return s
}

// TransportCounters returns the reliable sublayer's tallies.
func (n *Node) TransportCounters() transport.Counters { return n.tr.Counters() }

// WALStats returns the journal's append/flush tallies (group-commit
// batching shows up as Flushes ≪ Appends).
func (n *Node) WALStats() crash.WALStats { return n.wal.Stats() }

// MeshCounters returns the socket layer's tallies (zero for a channel
// node — the shared mesh's host owns those counters).
func (n *Node) MeshCounters() Counters {
	if n.mesh == nil {
		return Counters{}
	}
	return n.mesh.Counters()
}

// Err returns the first protocol/harness failure, or the mesh's
// handshake refusal, if any.
func (n *Node) Err() error {
	n.mu.Lock()
	err := n.err
	n.mu.Unlock()
	if err != nil {
		return err
	}
	if n.mesh == nil {
		return nil
	}
	return n.mesh.Rejected()
}

// WaitDeliveries blocks until at least k messages have been delivered
// here (or the node fails, or the timeout passes).
func (n *Node) WaitDeliveries(k int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	// sync.Cond has no timed wait: the deadline is one more wake-up.
	wake := time.AfterFunc(timeout, n.progress.Broadcast)
	defer wake.Stop()
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		switch got := n.stats.Deliveries; {
		case n.err != nil:
			return n.err
		case got >= k:
			return nil
		case !time.Now().Before(deadline):
			return fmt.Errorf("netmesh: P%d delivered %d of %d after %v", n.cfg.Self, got, k, timeout)
		}
		if n.wakeAt == 0 || k < n.wakeAt {
			n.wakeAt = k
		}
		n.progress.Wait()
	}
}

// Pending returns the transport's unacknowledged envelope count.
func (n *Node) Pending() int { return n.tr.Pending() }

// Close drains and stops the node: inbox first (queued handlers run),
// then the transport loop and the mesh (outboxes flush).
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	timers := n.timers
	n.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	if n.beatStop != nil {
		close(n.beatStop)
	}
	n.q.close()
	n.wg.Wait()
	n.tr.Close()
	if n.mesh != nil {
		n.mesh.Close()
	}
	n.wal.Close()
	return nil
}

func (n *Node) fail(err error) {
	n.mu.Lock()
	if n.err == nil {
		n.err = err
	}
	n.mu.Unlock()
	n.progress.Broadcast()
}

// run is the handler loop: one item at a time, in inbox order,
// per-process serialized.
func (n *Node) run() {
	defer n.wg.Done()
	var items []nodeItem
	var envs []transport.Envelope
	for {
		var ok bool
		if items, envs, ok = n.q.take(items, envs); !ok {
			return
		}
		off := 0
		for _, it := range items {
			switch it.kind {
			case itemInvoke:
				if n.down {
					n.heldInvokes = append(n.heldInvokes, it.msg)
					continue
				}
				n.doInvoke(it.msg)
			case itemBatch:
				n.handleBatch(envs[off : off+it.envs])
				off += it.envs
			case itemCrash:
				n.doCrash(it.downtime)
			case itemRestart:
				n.doRestart()
			}
		}
	}
}

func (n *Node) doInvoke(m event.Message) {
	n.probe.Invoke(m)
	n.host.Invoke(m)
}

// handleBatch mirrors the sim's receiver side over one arrival batch:
// acks always update the network-global pending table (even while
// crashed); data envelopes are dropped while down (the sender
// retransmits until the restart), otherwise deduplicated, journaled
// and handed to the protocol. Acks are pipelined: per source, one
// cumulative ack (transport.Envelope.Cum) acknowledges the batch's
// highest sequence number plus the whole contiguous prefix, and only
// sequence numbers the cumulative ack does not cover get an exact ack
// of their own — so an N-envelope batch usually costs one ack frame,
// not N. The bookkeeping lives in ackHi, so a batch allocates nothing.
func (n *Node) handleBatch(envs []transport.Envelope) {
	// hi tracks, per source, the batch's data envelope with the highest
	// sequence number (as 1 + its index): the one the cumulative ack is
	// minted from.
	hi := n.ackHi
	for i, e := range envs {
		switch e.Kind {
		case transport.Ack:
			n.tr.Ack(e)
		case transport.Beat:
			// Liveness signal only: no ack, no journal, no dedup — a
			// crashed incarnation is deaf to beats too.
			if n.down {
				continue
			}
			if det := n.cfg.Heartbeat.Detector; det != nil {
				det.Beat(e.Src)
			}
		case transport.Data:
			// No process outside the mesh sends: drop what claims to.
			if n.down || uint(e.Src) >= uint(len(hi)) {
				continue
			}
			fresh := n.tr.Accept(e)
			if j := hi[e.Src]; j == 0 || e.Seq > envs[j-1].Seq {
				hi[e.Src] = int32(i + 1)
			}
			if fresh {
				n.host.Receive(e.Wire, e.Seq)
			}
		}
	}
	if n.down {
		return
	}
	// Always (re-)acknowledge — the previous ack may have been lost.
	for _, j := range hi {
		if j != 0 {
			n.send(n.tr.CumAckFor(envs[j-1]))
		}
	}
	for i, e := range envs {
		if e.Kind != transport.Data || uint(e.Src) >= uint(len(hi)) || int(hi[e.Src]) == i+1 {
			continue
		}
		if e.Seq > n.tr.CumFor(e) {
			// A gap the cumulative ack can't cover yet: ack it exactly.
			n.send(transport.AckFor(e))
		}
	}
	clear(hi)
}

func (n *Node) doCrash(downtime time.Duration) {
	if n.down {
		return
	}
	n.down = true
	n.downPub.Store(true)
	n.mu.Lock()
	n.stats.Crashes++
	closed := n.closed
	n.mu.Unlock()
	n.host.Crash(fmt.Sprintf("crash-restart, down %v", downtime))
	if closed {
		return
	}
	t := time.AfterFunc(downtime, func() {
		n.q.push(nodeItem{kind: itemRestart}, nil)
	})
	n.mu.Lock()
	n.timers = append(n.timers, t)
	n.mu.Unlock()
}

// doRestart rebuilds the protocol instance from durable state through
// the host (checkpoint restore, journal replay, output verification),
// then goes live and drains invokes held during the downtime. The
// checkpoint's transport part is ignored: the live transport's state is
// ahead of it, and regressing it would re-deliver wires the dedup
// tables already absorbed.
func (n *Node) doRestart() {
	if !n.down {
		return
	}
	snap, entries := n.wal.Replay()
	_, replayed, err := n.host.Recover(n.cfg.Maker(), snap, entries, time.Time{})
	if err != nil {
		n.fail(fmt.Errorf("%w: %w", ErrProtocol, err))
		return
	}
	n.down = false
	n.downPub.Store(false)
	n.mu.Lock()
	n.stats.Recoveries++
	n.stats.ReplayedEvents += replayed
	n.mu.Unlock()
	held := n.heldInvokes
	n.heldInvokes = nil
	for _, m := range held {
		n.doInvoke(m)
	}
}
