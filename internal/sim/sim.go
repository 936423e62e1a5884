// Package sim is the live execution harness: every process runs as its
// own goroutine with an unbounded mailbox, and an adversary goroutine
// holds all in-flight transmissions and releases them in random order.
// Unlike package dsim there is no virtual clock — real concurrency
// exercises the protocols' state machines under true interleaving,
// while the random release order supplies the reordering adversary.
//
// The adversary is a pluggable fault-injecting scheduler. By default it
// only reorders (the paper's reliable-channel model). With WithFaults
// it also drops, duplicates, delays and partitions transmissions at the
// configured rates, and every protocol wire is carried by the reliable
// transport sublayer (internal/transport): sequenced envelopes, acks,
// timeout-driven retransmission with exponential backoff, and
// receiver-side dedup. Protocols above the transport still observe
// reliable exactly-once (but freely reordering) channels, so the
// paper's axioms R1-R3 keep holding while the network misbehaves.
//
// Safety properties must hold on every execution; exact traces are not
// reproducible across runs (the adversary's choices are seeded, but the
// goroutine interleaving is the scheduler's). Use dsim when a bit-exact
// replay is needed. With faults disabled the transport is bypassed
// entirely, so fault-free recorded runs are identical to the
// pre-transport harness's.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/host"
	"msgorder/internal/obs"
	"msgorder/internal/protocol"
	"msgorder/internal/run"
	"msgorder/internal/transport"
	"msgorder/internal/userview"
)

// Simulation errors.
var (
	ErrTimeout  = errors.New("sim: timed out waiting for quiescence")
	ErrProtocol = errors.New("sim: protocol error")
	ErrStopped  = errors.New("sim: network already stopped")
	// ErrCrashed reports an Invoke aimed at a crash-stopped process.
	// The request is dropped, exactly as a real client's request to a
	// dead server would be.
	ErrCrashed = errors.New("sim: process crashed")
)

// stallCap bounds how long a lossy-network Quiesce may extend past the
// configured timeout while the transport is still making progress.
const stallCap = 8

// Request asks for a user message invocation. With Broadcast set, To is
// ignored and one copy is invoked for every other process (the
// multicast extension); protocols implementing protocol.Broadcaster
// receive all copies together.
type Request struct {
	From, To  event.ProcID
	Color     event.Color
	Broadcast bool
	// Key places the message in an independent ordering domain
	// (event.NoKey = the global domain). Only sharded protocol runtimes
	// (internal/shard) act on it; plain protocols ignore it.
	Key event.Key
}

// Result is the outcome of a stopped network.
type Result struct {
	System      *run.Run
	View        *userview.Run
	Stats       protocol.Stats
	Undelivered []event.MsgID
	// Transport holds the reliable sublayer's counters (zero when the
	// network ran fault-free, i.e. without the transport).
	Transport transport.Counters
	// Faults holds the injected-fault tallies (zero without WithFaults).
	Faults transport.FaultCounters
	// Crashes holds the crash-injection tallies (zero without
	// WithCrashes).
	Crashes crash.InjectorCounters
	// Detector holds the failure detector's transition tallies (zero
	// without WithCrashes).
	Detector crash.DetectorCounters
}

// Scheduler orders and perturbs the adversary's in-flight
// transmissions. Pick chooses which of n in-flight transmissions to
// release next; Fate decides what the network does with the released
// one. The default scheduler picks uniformly at random (seeded) and
// always delivers; WithFaults installs one whose Fate injects drops,
// duplicates, delays and partition cuts. Fates other than
// transport.Deliver require the reliable transport (WithFaults) —
// without it a dropped wire would silently violate the paper's
// reliable-channel axioms.
type Scheduler interface {
	Pick(n int) int
	Fate(from, to event.ProcID) transport.Action
}

// randomSched is the default reorder-only adversary.
type randomSched struct{ rng *rand.Rand }

func (s *randomSched) Pick(n int) int { return s.rng.Intn(n) }
func (s *randomSched) Fate(event.ProcID, event.ProcID) transport.Action {
	return transport.Deliver
}

// faultSched keeps the random release order and delegates fates to the
// fault injector.
type faultSched struct {
	rng *rand.Rand
	inj *transport.Injector
}

func (s *faultSched) Pick(n int) int { return s.rng.Intn(n) }
func (s *faultSched) Fate(from, to event.ProcID) transport.Action {
	return s.inj.Decide(from, to)
}

// Option configures a Network.
type Option func(*Network)

// WithSeed seeds the adversary's release order (default 1).
func WithSeed(seed int64) Option {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// WithTimeout bounds Quiesce (default 10s). Under a fault plan this is
// the stall window: Quiesce keeps waiting past it while the transport
// makes progress (retransmissions, acks), up to stallCap windows.
func WithTimeout(d time.Duration) Option {
	return func(n *Network) { n.timeout = d }
}

// WithFaults makes the network lossy per the plan and routes every wire
// through the reliable transport sublayer.
func WithFaults(plan transport.FaultPlan) Option {
	return func(n *Network) { n.faults = &plan }
}

// WithTransportConfig tunes the transport's retransmission engine
// (effective only together with WithFaults or WithCrashes).
func WithTransportConfig(cfg transport.Config) Option {
	return func(n *Network) { n.trCfg = cfg }
}

// WithCrashes schedules process crashes per the plan. Crashed processes
// tear down mid-run; crash-restart ones come back after their downtime,
// restore the latest checkpoint, and replay their journal. Crashes
// force the reliable transport on (a crashed process loses its mailbox,
// so redelivery must come from retransmission) even without WithFaults.
// A plan with no crashes is ignored, keeping the run byte-identical to
// a crash-free one.
func WithCrashes(plan crash.Plan) Option {
	return func(n *Network) {
		if plan.Enabled() {
			n.crashes = &plan
		}
	}
}

// WithScheduler installs a custom adversary scheduler, overriding both
// the default and the WithFaults one.
func WithScheduler(s Scheduler) Option {
	return func(n *Network) { n.sched = s }
}

// WithTracer streams causally stamped trace records of the run into t,
// including transport retransmissions, injected faults and the stall
// detector's decisions. Timestamps are wall microseconds since New. The
// tracer must be safe for concurrent use (obs.Collector is).
func WithTracer(t obs.Tracer) Option {
	return func(n *Network) { n.tracer = t }
}

// WithMetrics records inhibition/latency histograms, transport
// distributions and stall-detector counters into m.
func WithMetrics(m *obs.Registry) Option {
	return func(n *Network) { n.metrics = m }
}

// Network is a live protocol harness. Construct with New, feed with
// Invoke, then Stop to collect the recorded run.
type Network struct {
	n       int
	rec     *protocol.Recorder
	rng     *rand.Rand
	timeout time.Duration
	maker   protocol.Maker

	procs []*mailbox
	hosts []*host.Host

	pool     chan flight
	work     *workGate
	stopOnce sync.Once
	statOnce sync.Once
	// finalTr / finalFaults are the counters as first read at Stop; the
	// recorded Stats and the Result both report this one reading, so a
	// straggling duplicate landing after shutdown cannot split them.
	finalTr     transport.Counters
	finalFaults transport.FaultCounters
	done        chan struct{}

	faults *transport.FaultPlan
	trCfg  transport.Config
	tr     *transport.Reliable
	inj    *transport.Injector
	sched  Scheduler

	crashes  *crash.Plan
	crashInj *crash.Injector
	det      *crash.Detector
	wals     []*crash.WAL

	// crashMu fences crash state against concurrent senders: Send holds
	// the read lock across its dead-check and transport Wrap, so every
	// envelope addressed to a process is either wrapped before the
	// crash marks it dead (and cancelled by CancelTo) or never wrapped.
	crashMu    sync.RWMutex
	incs       []*incarnation
	downProcs  []bool // crashed, restart pending (or dead)
	deadProcs  []bool // crash-stopped forever
	tallyCrash struct{ crashes, recoveries, replayed int }

	tracer  obs.Tracer
	metrics *obs.Registry
	probe   *obs.Probe // nil unless WithTracer/WithMetrics was given
	sink    *obs.Sink  // shared with the transport; nil when disabled

	mu        sync.Mutex
	err       error
	onDeliver func(p event.ProcID, id event.MsgID) []Request
	stopped   bool
	timers    []*time.Timer // pending restarts, cancelled at shutdown

	// hookMu serializes onDeliver invocations so workload closures need
	// no locking of their own.
	hookMu sync.Mutex
}

// flight is one in-flight transmission: a bare wire (fault-free mode)
// or a transport envelope (lossy mode).
type flight struct {
	wire  protocol.Wire
	env   transport.Envelope
	isEnv bool
}

func (f flight) from() event.ProcID {
	if f.isEnv {
		return f.env.Src
	}
	return f.wire.From
}

func (f flight) to() event.ProcID {
	if f.isEnv {
		return f.env.Dst
	}
	return f.wire.To
}

// workGate counts outstanding work items and exposes an idle channel
// closed whenever the count is zero. Unlike sync.WaitGroup, add while
// a waiter is blocked is well-defined (the waiter observes the zero
// instant it was waiting for), and waiting costs no goroutine — the
// two lifecycle bugs the old WaitGroup-based harness had.
type workGate struct {
	mu   sync.Mutex
	n    int
	zero chan struct{}
}

func newWorkGate() *workGate {
	g := &workGate{zero: make(chan struct{})}
	close(g.zero)
	return g
}

func (g *workGate) add(d int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	was := g.n
	g.n += d
	switch {
	case g.n < 0:
		panic("sim: negative work count")
	case was == 0 && g.n > 0:
		g.zero = make(chan struct{})
	case was > 0 && g.n == 0:
		close(g.zero)
	}
}

func (g *workGate) done() { g.add(-1) }

// idle returns a channel that is closed once the count reaches zero.
func (g *workGate) idle() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.zero
}

// item is one mailbox entry: an invoke, a broadcast batch, a bare wire
// arrival, or a transport envelope arrival.
type item struct {
	isInvoke    bool
	isBroadcast bool
	isEnv       bool
	msg         event.Message
	msgs        []event.Message
	wire        protocol.Wire
	env         transport.Envelope
}

// mailbox is an unbounded FIFO with condition-variable signalling. One
// mailbox serves a process for the network's whole life, across crash
// incarnations: down marks a crash (the incarnation's goroutine exits
// at its next pop), dead marks a crash-stop.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []item
	closed bool
	down   bool
	dead   bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// push queues it, reporting false when the process is dead forever so
// the caller can release the item's work count. Transmissions arriving
// while the process is down are dropped — they are pre-accept, so the
// transport redelivers them after restart; user invocations queue up
// and drain in the next incarnation.
func (m *mailbox) push(it item) bool {
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		return false
	}
	if m.down && !it.isInvoke && !it.isBroadcast {
		m.mu.Unlock()
		return true
	}
	m.items = append(m.items, it)
	m.mu.Unlock()
	m.cond.Signal()
	return true
}

// crash marks the mailbox down, dropping queued transmissions. With
// keepUser, queued user invocations survive for the next incarnation;
// otherwise (crash-stop) they are dropped and their count returned so
// the harness can release their work.
func (m *mailbox) crash(keepUser bool) int {
	m.mu.Lock()
	m.down = true
	m.dead = !keepUser
	dropped := 0
	var kept []item
	for _, it := range m.items {
		switch {
		case !it.isInvoke && !it.isBroadcast:
			// dropped: the transport redelivers after restart
		case keepUser:
			kept = append(kept, it)
		default:
			dropped++
		}
	}
	m.items = kept
	m.mu.Unlock()
	m.cond.Broadcast()
	return dropped
}

// restart reopens a down mailbox; anything queued while down drains in
// arrival order.
func (m *mailbox) restart() {
	m.mu.Lock()
	m.down = false
	m.mu.Unlock()
	m.cond.Broadcast()
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// pop blocks until an item arrives, the process crashes, or the mailbox
// closes. A crash returns false immediately — queued items wait for the
// next incarnation — while a close drains the queue first.
func (m *mailbox) pop() (item, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.items) == 0 && !m.closed && !m.down {
		m.cond.Wait()
	}
	if m.down || len(m.items) == 0 {
		return item{}, false
	}
	it := m.items[0]
	m.items = m.items[1:]
	return it, true
}

// New builds and starts a live network of n processes.
func New(n int, maker protocol.Maker, opts ...Option) *Network {
	nw := &Network{
		n:       n,
		rec:     protocol.NewRecorder(n),
		rng:     rand.New(rand.NewSource(1)),
		timeout: 10 * time.Second,
		pool:    make(chan flight, 1),
		work:    newWorkGate(),
		done:    make(chan struct{}),
		maker:   maker,
	}
	for _, o := range opts {
		o(nw)
	}
	if nw.tracer != nil || nw.metrics != nil {
		start := time.Now()
		now := func() int64 { return time.Since(start).Microseconds() }
		nw.sink = &obs.Sink{Tracer: nw.tracer, Metrics: nw.metrics, Now: now}
	}
	if nw.crashes != nil {
		if err := nw.crashes.Validate(n); err != nil {
			nw.fail(fmt.Errorf("%w: %v", ErrProtocol, err))
			nw.crashes = nil
		}
	}
	if nw.faults != nil {
		nw.inj = transport.NewInjector(*nw.faults)
		if nw.sink != nil {
			nw.inj.Observe(nw.sink)
		}
	}
	if nw.faults != nil || nw.crashes != nil {
		if nw.sink != nil {
			nw.trCfg.Obs = nw.sink
		}
		nw.tr = transport.NewReliable(nw.trCfg, func(ev transport.Envelope) {
			nw.inject(flight{env: ev, isEnv: true})
		})
	}
	if nw.sched == nil {
		if nw.inj != nil {
			nw.sched = &faultSched{rng: nw.rng, inj: nw.inj}
		} else {
			nw.sched = &randomSched{rng: nw.rng}
		}
	}
	if nw.crashes != nil {
		nw.downProcs = make([]bool, n)
		nw.deadProcs = make([]bool, n)
		nw.wals = make([]*crash.WAL, n)
		for i := range nw.wals {
			nw.wals[i] = nw.openWAL(i)
		}
		nw.det = crash.NewDetector(n, nw.crashes.Detector, nw.sink)
		nw.crashInj = crash.NewInjector(*nw.crashes, nw.sched, nw.crashProcess)
		nw.sched = nw.crashInj
	}
	proto := ""
	insts := make([]protocol.Process, n)
	for i := range insts {
		insts[i] = maker()
		if d, ok := insts[i].(protocol.Describer); ok {
			proto = d.Describe().Name
		}
	}
	if nw.sink != nil {
		nw.probe = obs.NewProbe(n, nw.tracer, nw.metrics, proto, nw.sink.Now)
	}
	for i, inst := range insts {
		self := event.ProcID(i)
		cfg := host.Config{
			Self: self, Procs: n, Sink: nw.sink, Probe: nw.probe,
			Send:    func(w protocol.Wire) { nw.send(self, w) },
			Deliver: func(id event.MsgID) { nw.deliver(self, id) },
			Fail:    func(err error) { nw.fail(fmt.Errorf("%w: %w", ErrProtocol, err)) },
		}
		if nw.wals != nil {
			cfg.WAL, cfg.SnapshotEvery = nw.wals[i], nw.crashes.SnapshotEvery
		}
		nw.hosts = append(nw.hosts, host.New(cfg))
		nw.hosts[i].Boot(inst)
		nw.incs = append(nw.incs, &incarnation{gone: make(chan struct{}), hbStop: make(chan struct{})})
		nw.procs = append(nw.procs, newMailbox())
	}
	for i, inc := range nw.incs {
		go nw.runProcess(event.ProcID(i), inc)
		if nw.det != nil {
			go nw.heartbeat(event.ProcID(i), inc)
		}
	}
	go nw.runAdversary()
	return nw
}

// OnDeliver installs the delivery hook. Must be called before the first
// Invoke.
func (nw *Network) OnDeliver(fn func(p event.ProcID, id event.MsgID) []Request) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.onDeliver = fn
}

// Invoke submits a user request. It returns ErrStopped after Stop and
// ErrProtocol for out-of-range processes; the stopped check and the
// work accounting are atomic, so Invoke never races a concurrent
// Quiesce into a lost or half-counted request.
func (nw *Network) Invoke(req Request) error {
	if int(req.From) < 0 || int(req.From) >= nw.n {
		return fmt.Errorf("%w: invoke from out-of-range process %d", ErrProtocol, req.From)
	}
	if !req.Broadcast && (int(req.To) < 0 || int(req.To) >= nw.n) {
		return fmt.Errorf("%w: invoke to out-of-range process %d", ErrProtocol, req.To)
	}
	nw.mu.Lock()
	if nw.stopped {
		nw.mu.Unlock()
		return ErrStopped
	}
	if req.Broadcast {
		msgs := make([]event.Message, 0, nw.n-1)
		for to := 0; to < nw.n; to++ {
			if event.ProcID(to) == req.From {
				continue
			}
			msgs = append(msgs, nw.rec.NewKeyedMessage(req.From, event.ProcID(to), req.Color, req.Key))
		}
		if len(msgs) == 0 {
			nw.mu.Unlock()
			return nil // single-process system: nothing to broadcast
		}
		nw.work.add(1)
		nw.mu.Unlock()
		for _, m := range msgs {
			nw.probe.Invoke(m)
		}
		if !nw.procs[req.From].push(item{isBroadcast: true, msgs: msgs}) {
			nw.work.done()
			return fmt.Errorf("%w: P%d", ErrCrashed, req.From)
		}
		return nil
	}
	m := nw.rec.NewKeyedMessage(req.From, req.To, req.Color, req.Key)
	nw.work.add(1)
	nw.mu.Unlock()
	nw.probe.Invoke(m)
	if !nw.procs[req.From].push(item{isInvoke: true, msg: m}) {
		nw.work.done()
		return fmt.Errorf("%w: P%d", ErrCrashed, req.From)
	}
	return nil
}

// Quiesce waits until all submitted work (and everything it spawned)
// has been processed. No waiter goroutine is spawned, so a timed-out
// Quiesce leaks nothing and may be retried. Under a fault plan the
// timeout acts as a stall window: while the transport keeps making
// progress (retransmitting, acking) the deadline extends, up to
// stallCap windows — distinguishing a lossy-but-live network from a
// deadlocked one.
func (nw *Network) Quiesce() error {
	idle := nw.work.idle()
	if nw.tr == nil {
		select {
		case <-idle:
			nw.stallVerdict("idle", "all work drained")
			return nw.runErr()
		case <-time.After(nw.timeout):
			nw.stallVerdict("timeout", "work outstanding, no transport to observe")
			if err := nw.runErr(); err != nil {
				return err
			}
			return fmt.Errorf("%w after %v", ErrTimeout, nw.timeout)
		}
	}
	start := time.Now()
	last := nw.tr.Progress()
	for {
		select {
		case <-idle:
			nw.stallVerdict("idle", "all work drained")
			return nw.runErr()
		case <-time.After(nw.timeout):
			cur := nw.tr.Progress()
			if cur != last && time.Since(start) < stallCap*nw.timeout {
				// Still retransmitting: lossy but live. Record the window
				// extension and how much transport progress bought it.
				if s := nw.sink; s.Enabled() {
					s.Count("sim.stall.extensions", 1)
					s.Observe("sim.stall.progress.delta", int64(cur-last))
					s.Trace(obs.Record{
						Step: s.Step(), Proc: obs.HarnessProc, Op: obs.OpStallExtend, Msg: obs.NoMsg,
						Note: fmt.Sprintf("transport progress %d -> %d, window extended", last, cur),
					})
				}
				last = cur
				continue
			}
			if err := nw.runErr(); err != nil {
				nw.stallVerdict("failed", err.Error())
				return err
			}
			if cur != last || nw.tr.Pending() > 0 {
				nw.stallVerdict("retransmitting", fmt.Sprintf("%d unacked envelopes", nw.tr.Pending()))
				return fmt.Errorf("%w: transport still retransmitting (%d unacked envelopes) after %v",
					ErrTimeout, nw.tr.Pending(), time.Since(start).Round(time.Millisecond))
			}
			nw.stallVerdict("deadlock", "no transport progress for a full window")
			return fmt.Errorf("%w: no transport progress for %v — harness deadlocked",
				ErrTimeout, nw.timeout)
		}
	}
}

// stallVerdict records how one Quiesce call ended: a per-verdict
// counter plus an OpStallVerdict trace record. No-op when the network
// is uninstrumented.
func (nw *Network) stallVerdict(kind, detail string) {
	s := nw.sink
	if !s.Enabled() {
		return
	}
	s.Count("sim.stall.verdict."+kind, 1)
	s.Trace(obs.Record{
		Step: s.Step(), Proc: obs.HarnessProc, Op: obs.OpStallVerdict, Msg: obs.NoMsg,
		Note: kind + ": " + detail,
	})
}

func (nw *Network) runErr() error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.err
}

// Stop quiesces, shuts the goroutines down, and returns the recorded
// run. Teardown happens even when quiescence fails, so a timed-out
// network does not leak its process, adversary and retransmission
// goroutines; straggler handlers then fail fast instead of hanging.
func (nw *Network) Stop() (*Result, error) {
	qerr := nw.Quiesce()
	nw.shutdown()
	if qerr != nil {
		return nil, qerr
	}
	if nw.tr != nil {
		nw.statOnce.Do(func() {
			nw.finalTr = nw.tr.Counters()
			if nw.inj != nil {
				nw.finalFaults = nw.inj.Counters()
			}
			nw.rec.RecordTransport(nw.finalTr.Retransmits, nw.finalTr.DupsDropped, nw.finalFaults.Total())
			if nw.crashInj != nil {
				nw.crashMu.RLock()
				t := nw.tallyCrash
				nw.crashMu.RUnlock()
				nw.rec.RecordCrashes(t.crashes, t.recoveries, t.replayed)
			}
		})
	}
	sys, err := nw.rec.SystemRun()
	if err != nil {
		return nil, fmt.Errorf("%w: recorded run invalid: %v", ErrProtocol, err)
	}
	view, err := sys.UsersView()
	if err != nil {
		return nil, fmt.Errorf("%w: user view invalid: %v", ErrProtocol, err)
	}
	res := &Result{
		System:      sys,
		View:        view,
		Stats:       nw.rec.Stats(),
		Undelivered: nw.rec.Undelivered(),
	}
	res.Transport, res.Faults = nw.finalTr, nw.finalFaults
	if nw.crashInj != nil {
		res.Crashes = nw.crashInj.Counters()
	}
	if nw.det != nil {
		res.Detector = nw.det.Counters()
	}
	return res, nil
}

// shutdown tears the harness down exactly once: mark stopped, release
// the adversary and any blocked senders, stop the transport's
// retransmission loop, and close the mailboxes.
func (nw *Network) shutdown() {
	nw.stopOnce.Do(func() {
		nw.mu.Lock()
		nw.stopped = true
		timers := nw.timers
		nw.timers = nil
		nw.mu.Unlock()
		for _, t := range timers {
			t.Stop()
		}
		close(nw.done) // before tr.Close: unblocks the resend path
		if nw.tr != nil {
			nw.tr.Close()
		}
		if nw.det != nil {
			nw.det.Close()
		}
		for _, m := range nw.procs {
			m.close()
		}
		for _, w := range nw.wals {
			w.Close()
		}
	})
}

// inject hands a transmission to the adversary, failing fast (false)
// once the network has shut down instead of blocking forever on the
// pool channel.
func (nw *Network) inject(f flight) bool {
	// Check done first: after shutdown the adversary is gone, and the
	// pool's buffer would otherwise swallow one straggler send.
	select {
	case <-nw.done:
		return false
	default:
	}
	select {
	case nw.pool <- f:
		return true
	case <-nw.done:
		return false
	}
}

// runProcess is one incarnation's goroutine: it drains process p's
// mailbox into its host, which journals each input before its handler
// runs (so a crash never loses a half-applied event — the goroutine
// only exits between handlers, at the next pop).
func (nw *Network) runProcess(p event.ProcID, inc *incarnation) {
	defer close(inc.gone)
	h := nw.hosts[p]
	for {
		it, ok := nw.procs[p].pop()
		if !ok {
			return
		}
		switch {
		case it.isInvoke:
			h.Invoke(it.msg)
			nw.work.done()
		case it.isBroadcast:
			h.Broadcast(it.msgs)
			nw.work.done()
		case it.isEnv:
			nw.handleEnvelope(h, it.env)
		default:
			nw.receive(h, it.wire, 0)
		}
	}
}

// receive records a first-copy wire arrival and runs its handler.
func (nw *Network) receive(h *host.Host, w protocol.Wire, seq uint64) {
	if w.Kind == protocol.UserWire {
		nw.rec.RecordReceive(w.Msg)
	}
	h.Receive(w, seq)
	nw.work.done()
}

// handleEnvelope is the receiver side of the transport sublayer: acks
// are routed to the pending table; data envelopes are acknowledged,
// deduplicated, and (first copy only) handed to the protocol.
func (nw *Network) handleEnvelope(h *host.Host, ev transport.Envelope) {
	switch ev.Kind {
	case transport.Ack:
		nw.tr.Ack(ev)
	case transport.Data:
		fresh := nw.tr.Accept(ev)
		// Always (re-)acknowledge — the previous ack may have been lost.
		nw.inject(flight{env: transport.AckFor(ev), isEnv: true})
		if fresh {
			nw.receive(h, ev.Wire, ev.Seq)
		}
	}
}

// runAdversary accumulates in-flight transmissions and releases them in
// the scheduler's order, applying its fate (deliver, drop, duplicate,
// delay) to each release.
func (nw *Network) runAdversary() {
	var inflight []flight
	for {
		if len(inflight) == 0 {
			select {
			case f := <-nw.pool:
				inflight = append(inflight, f)
			case <-nw.done:
				return
			}
			continue
		}
		// Opportunistically batch whatever is queued, then release one.
		for {
			select {
			case f := <-nw.pool:
				inflight = append(inflight, f)
				continue
			default:
			}
			break
		}
		i := nw.sched.Pick(len(inflight))
		f := inflight[i]
		inflight[i] = inflight[len(inflight)-1]
		inflight = inflight[:len(inflight)-1]
		switch nw.sched.Fate(f.from(), f.to()) {
		case transport.Drop:
			continue // the transport's retransmission recovers it
		case transport.Duplicate:
			inflight = append(inflight, f) // deliver now, copy stays in flight
		case transport.Delay:
			inflight = append(inflight, f) // back into the reorder pool
			continue
		}
		if nw.crashes != nil && f.isEnv && f.env.Kind == transport.Ack && nw.procDown(f.to()) {
			// A down process cannot run its transport handler, but ack
			// state is network-global bookkeeping: apply it directly so
			// a crashed sender's pendings stop retransmitting instead of
			// looping until the run ends.
			nw.tr.Ack(f.env)
			continue
		}
		nw.procs[f.to()].push(item{wire: f.wire, env: f.env, isEnv: f.isEnv})
	}
}

func (nw *Network) fail(err error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.err == nil {
		nw.err = err
	}
}

// send records a wire its host has checked, journaled and probed, and
// hands it to the adversary: bare in fault-free mode, wrapped by the
// reliable transport otherwise. Under a crash plan, wires addressed to
// a crash-stopped process vanish (their messages stay undelivered,
// which conformance tolerates for crash-stop plans), and holding the
// crash fence's read lock across Wrap guarantees CancelTo sees every
// envelope a racing crash-stop must uncount.
func (nw *Network) send(self event.ProcID, w protocol.Wire) {
	if w.Kind == protocol.UserWire {
		nw.rec.RecordSend(w.Msg, len(w.Tag))
	} else {
		nw.rec.RecordControl(len(w.Tag))
	}
	f := flight{wire: w}
	if nw.tr == nil {
		nw.work.add(1)
	} else {
		nw.crashMu.RLock()
		if nw.deadProcs != nil && nw.deadProcs[w.To] {
			nw.crashMu.RUnlock()
			return
		}
		nw.work.add(1)
		f = flight{env: nw.tr.Wrap(self, w.To, w), isEnv: true}
		nw.crashMu.RUnlock()
	}
	if !nw.inject(f) {
		nw.work.done()
		nw.fail(fmt.Errorf("%w: P%d sent after network stop", ErrProtocol, self))
	}
}

// deliver records a delivery its host has journaled and probed, then
// runs the workload's delivery hook.
func (nw *Network) deliver(self event.ProcID, id event.MsgID) {
	nw.rec.RecordDeliver(id)
	nw.mu.Lock()
	hook := nw.onDeliver
	nw.mu.Unlock()
	if hook == nil {
		return
	}
	nw.hookMu.Lock()
	reqs := hook(self, id)
	nw.hookMu.Unlock()
	for _, req := range reqs {
		err := nw.Invoke(req)
		if err != nil && !errors.Is(err, ErrStopped) && !errors.Is(err, ErrCrashed) {
			nw.fail(err)
		}
	}
}
