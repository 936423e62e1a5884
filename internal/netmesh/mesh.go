// Package netmesh is the real-socket peer mesh: it carries the live
// harness's transport.Envelope stream over length-prefixed TCP framing,
// one OS-level connection per ordered peer pair. The paper's protocols
// and the reliable sublayer above them are network-agnostic — a wire
// goes in at the source, an envelope comes out at the destination — so
// the mesh slots in exactly where the in-memory adversary used to sit:
//
//	protocol → transport.Reliable → Mesh (TCP) → transport.Reliable → protocol
//
// Each Mesh runs one listener plus one supervised dialer per peer.
// Connections open with a handshake exchanging process IDs and a
// protocol/spec fingerprint; mismatched peers are refused with a reject
// frame, which stops the dialer's retry loop (a mesh of mixed protocol
// builds would corrupt the run, not just slow it). Lost connections are
// redialed with seeded, jittered exponential backoff. Send is
// fire-and-forget: an envelope on a broken connection is simply lost,
// and transport.Reliable retransmits it — the same contract the
// in-memory fault injector provides, which is also why an optional
// *transport.Injector can sit on the outbound path and drop, duplicate
// or delay frames on a real socket. Close drains every peer outbox
// before tearing the connections down.
//
// Many logical channels can share each connection (internal/chanmux):
// envelopes carry a channel ID (transport.Envelope.Chan), the per-peer
// outbox keeps one FIFO per channel and drains them round-robin into
// shared batch frames, so a blocked or retransmitting channel cannot
// head-of-line-block a sibling channel's traffic. Un-multiplexed
// deployments use channel 0 throughout and behave exactly as before.
package netmesh

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/obs"
	"msgorder/internal/transport"
)

// MeshConfig configures one process's endpoint of the mesh.
type MeshConfig struct {
	// Self is this process's id; Addrs[Self] is its listen address.
	Self event.ProcID
	// Addrs lists every process's address, indexed by ProcID. Entry
	// Self may use port 0; Addr() reports the bound address.
	Addrs []string
	// Fingerprint identifies the protocol/spec build this process runs.
	// Peers presenting a different fingerprint are refused.
	Fingerprint string
	// Seed drives the reconnect jitter (default 1).
	Seed int64
	// DialBackoff and MaxDialBackoff bound the reconnect backoff
	// (defaults 2ms and 250ms).
	DialBackoff, MaxDialBackoff time.Duration
	// DrainTimeout bounds how long Close waits for outboxes to flush
	// (default 2s).
	DrainTimeout time.Duration
	// MaxBatch bounds the envelopes coalesced into one batch frame
	// (default 64, capped at the codec's frame limit).
	MaxBatch int
	// Injector, when non-nil, applies seeded drop/duplicate/delay faults
	// to outbound envelopes — the in-memory adversary's fault interface
	// on a real socket. transport.Reliable above recovers.
	Injector *transport.Injector
	// Obs, when non-nil, receives mesh counters and trace records.
	Obs *obs.Sink
}

func (c MeshConfig) withDefaults() MeshConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = 2 * time.Millisecond
	}
	if c.MaxDialBackoff <= 0 {
		c.MaxDialBackoff = 250 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 2 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxBatch > maxBatch {
		c.MaxBatch = maxBatch
	}
	return c
}

// Counters tallies one mesh endpoint's socket work.
type Counters struct {
	// Accepted counts inbound connections that passed the handshake.
	Accepted int
	// Dials counts outbound connection attempts (including redials).
	Dials int
	// Redials counts dials after the first per peer — connection churn.
	Redials int
	// Rejects counts handshakes refused, in either direction.
	Rejects int
	// FramesIn / FramesOut count decoded envelope frames and frames
	// handed to a connection (a batch frame counts once; one lost with a
	// connection that broke under it still counts as out).
	FramesIn, FramesOut int
	// EnvelopesIn / EnvelopesOut count envelopes carried by those
	// frames; EnvelopesOut/FramesOut is the achieved batching factor.
	EnvelopesIn, EnvelopesOut int
	// Batches counts outbound frames that coalesced ≥ 2 envelopes.
	Batches int
	// BytesIn / BytesOut count envelope frame payload bytes.
	BytesIn, BytesOut int
	// FaultsInjected counts outbound envelopes the injector dropped,
	// duplicated or delayed.
	FaultsInjected int
}

// Add accumulates other into c.
func (c *Counters) Add(o Counters) {
	c.Accepted += o.Accepted
	c.Dials += o.Dials
	c.Redials += o.Redials
	c.Rejects += o.Rejects
	c.FramesIn += o.FramesIn
	c.FramesOut += o.FramesOut
	c.EnvelopesIn += o.EnvelopesIn
	c.EnvelopesOut += o.EnvelopesOut
	c.Batches += o.Batches
	c.BytesIn += o.BytesIn
	c.BytesOut += o.BytesOut
	c.FaultsInjected += o.FaultsInjected
}

// ErrRejected reports a peer refusing our handshake (or vice versa):
// the two endpoints disagree on the protocol/spec fingerprint or the
// mesh shape, and the dialer must not keep retrying.
var ErrRejected = errors.New("netmesh: handshake rejected")

// chanq is one logical channel's FIFO inside an outbox. head is the
// pop cursor: popBatch consumes from head and compacts the backing
// array afterwards, so steady-state traffic reuses the same slice.
type chanq struct {
	q    []transport.Envelope
	head int
}

// len returns the queued (unconsumed) envelope count.
func (c *chanq) len() int { return len(c.q) - c.head }

// outbox is an unbounded per-peer queue so mesh senders never block the
// protocol handler that is enqueueing. Internally it keeps one FIFO per
// multiplexed channel (envelopes are segregated by Envelope.Chan) and
// popBatch drains them round-robin, one envelope per turn — so a
// channel with a deep backlog (say, a partitioned channel's
// retransmissions) cannot head-of-line-block a sibling channel's
// traffic on the same connection. Un-multiplexed deployments only ever
// queue channel 0 and see the exact legacy FIFO behavior.
type outbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// chans maps channel ID → its FIFO; order is the round-robin scan
	// order (append-only: a channel keeps its queue for the life of the
	// outbox); rr is the round-robin cursor into order.
	chans  map[uint32]*chanq
	order  []uint32
	rr     int
	total  int
	closed bool
	// beats counts queued heartbeat envelopes. Beats coalesce: a beat
	// pushed while one is already queued is dropped, so a partitioned
	// peer's outbox holds at most one stale beat instead of growing
	// without bound for the life of the cut.
	beats int
}

func newOutbox() *outbox {
	b := &outbox{chans: make(map[uint32]*chanq)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *outbox) push(e transport.Envelope) {
	b.mu.Lock()
	if !b.closed {
		if e.Kind == transport.Beat {
			if b.beats > 0 {
				b.mu.Unlock()
				return // coalesce: one pending beat per peer is enough
			}
			b.beats++
		}
		cq := b.chans[e.Chan]
		if cq == nil {
			cq = &chanq{}
			b.chans[e.Chan] = cq
			b.order = append(b.order, e.Chan)
		}
		cq.q = append(cq.q, e)
		b.total++
	}
	b.mu.Unlock()
	b.cond.Signal()
}

// popBatch blocks only while the outbox is empty (and open), then moves
// whatever is queued, up to max envelopes, into buf (reusing its
// capacity). It never waits for company: the sender's socket write is
// the clock, and what is pushed while a write is in flight is the next
// batch — an idle connection sends at once, a backlogged one fills
// whole frames. Envelopes are taken round-robin across the queued
// channels — per-channel FIFO order is preserved, cross-channel order
// is fairness, not arrival. The second result is false only when the
// outbox is closed and drained.
func (b *outbox) popBatch(buf []transport.Envelope, max int) ([]transport.Envelope, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.total == 0 && !b.closed {
		b.cond.Wait()
	}
	if b.total == 0 {
		return buf[:0], false
	}
	n := b.total
	if n > max {
		n = max
	}
	buf = buf[:0]
	for taken := 0; taken < n; {
		cq := b.chans[b.order[b.rr%len(b.order)]]
		b.rr++
		if cq.head >= len(cq.q) {
			continue // this channel is drained; probe the next
		}
		e := cq.q[cq.head]
		cq.head++
		if e.Kind == transport.Beat {
			b.beats--
		}
		buf = append(buf, e)
		taken++
	}
	b.total -= n
	// Compact each touched queue in place so the backing arrays keep
	// being reused instead of creeping forward and re-allocating.
	for _, id := range b.order {
		cq := b.chans[id]
		if cq.head > 0 {
			m := copy(cq.q, cq.q[cq.head:])
			cq.q = cq.q[:m]
			cq.head = 0
		}
	}
	return buf, true
}

func (b *outbox) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// empty reports whether nothing is queued.
func (b *outbox) empty() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total == 0
}

// flushable reports whether the outbox holds envelopes worth waiting
// for at Close. Queued heartbeats don't count: a beat that hasn't
// reached its peer is stale the moment the mesh starts closing, so an
// unreachable peer's beat residue must not stall shutdown for the
// full drain timeout.
func (b *outbox) flushable() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total > b.beats
}

// Mesh is one process's endpoint of the peer mesh. NewMesh starts the
// listener and one supervised sender per peer; Close drains and stops
// them.
type Mesh struct {
	cfg MeshConfig
	ln  net.Listener
	rcv func([]transport.Envelope)

	mu       sync.Mutex
	rng      *rand.Rand
	counts   Counters
	rejected error // first fingerprint refusal observed
	// conns tracks accepted connections so Close can unblock their
	// readers (the remote end may outlive us).
	conns map[net.Conn]struct{}

	boxes map[event.ProcID]*outbox

	closing chan struct{}
	once    sync.Once
	wg      sync.WaitGroup // senders + accept loop
	connWG  sync.WaitGroup // per-connection readers
}

// NewMesh binds cfg.Addrs[cfg.Self] and starts the peer senders.
// Arriving envelopes addressed to Self are handed to rcv in arrival
// batches (one batch per decoded frame), one goroutine per inbound
// connection; rcv must be concurrency-safe and non-blocking (hand off
// to a queue). The slice is lent: the mesh decodes the connection's
// next frame into it, so rcv must not retain envs after it returns
// (copy what it keeps).
func NewMesh(cfg MeshConfig, rcv func([]transport.Envelope)) (*Mesh, error) {
	cfg = cfg.withDefaults()
	if int(cfg.Self) < 0 || int(cfg.Self) >= len(cfg.Addrs) {
		return nil, fmt.Errorf("netmesh: self %d outside %d-address mesh", cfg.Self, len(cfg.Addrs))
	}
	ln, err := net.Listen("tcp", cfg.Addrs[cfg.Self])
	if err != nil {
		return nil, fmt.Errorf("netmesh: listen: %w", err)
	}
	m := &Mesh{
		cfg:     cfg,
		ln:      ln,
		rcv:     rcv,
		rng:     rand.New(rand.NewSource(cfg.Seed*0x9e3779b9 + int64(cfg.Self))),
		conns:   make(map[net.Conn]struct{}),
		boxes:   make(map[event.ProcID]*outbox),
		closing: make(chan struct{}),
	}
	for p := range cfg.Addrs {
		if event.ProcID(p) == cfg.Self {
			continue
		}
		box := newOutbox()
		m.boxes[event.ProcID(p)] = box
		m.wg.Add(1)
		go m.runSender(event.ProcID(p), box)
	}
	m.wg.Add(1)
	go m.runAccept()
	return m, nil
}

// Addr returns the listener's bound address (useful with port 0).
func (m *Mesh) Addr() string { return m.ln.Addr().String() }

// Counters returns a snapshot of the socket tallies.
func (m *Mesh) Counters() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts
}

// Rejected returns the first handshake refusal observed, if any: a
// non-nil result means some peer runs a different protocol/spec build
// and the mesh will never fully form.
func (m *Mesh) Rejected() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rejected
}

// loopback lends Send the one-element slice it hands rcv for an
// envelope addressed to Self; rcv copies what it keeps.
var loopback = sync.Pool{New: func() any { return new([1]transport.Envelope) }}

// Send queues an envelope for its destination. It never blocks; on a
// dead connection the envelope is lost and the reliable sublayer above
// retransmits. Envelopes addressed to Self loop back without a socket.
func (m *Mesh) Send(e transport.Envelope) {
	if e.Dst == m.cfg.Self {
		one := loopback.Get().(*[1]transport.Envelope)
		one[0] = e
		m.rcv(one[:])
		one[0] = transport.Envelope{}
		loopback.Put(one)
		return
	}
	box, ok := m.boxes[e.Dst]
	if !ok {
		return // outside the mesh: drop, as a lossy network would
	}
	box.push(e)
}

// Close drains every outbox (bounded by DrainTimeout), then stops the
// senders, the listener, and the inbound readers.
func (m *Mesh) Close() error {
	m.once.Do(func() {
		deadline := time.Now().Add(m.cfg.DrainTimeout)
		for _, box := range m.boxes {
			for box.flushable() && time.Now().Before(deadline) {
				time.Sleep(500 * time.Microsecond)
			}
		}
		close(m.closing)
		for _, box := range m.boxes {
			box.close()
		}
		m.ln.Close()
		m.wg.Wait()
		m.mu.Lock()
		for c := range m.conns {
			c.Close()
		}
		m.mu.Unlock()
		m.connWG.Wait()
	})
	return nil
}

func (m *Mesh) closed() bool {
	select {
	case <-m.closing:
		return true
	default:
		return false
	}
}

// count applies f to the counters under the lock.
func (m *Mesh) count(f func(*Counters)) {
	m.mu.Lock()
	f(&m.counts)
	m.mu.Unlock()
}

// trace emits one mesh lifecycle note.
func (m *Mesh) trace(op obs.Op, note string) {
	if s := m.cfg.Obs; s.Enabled() {
		s.Trace(obs.Record{
			Step: s.Step(), Proc: m.cfg.Self, Op: op, Msg: obs.NoMsg, Note: note,
		})
	}
}

// runAccept owns the listener: every inbound connection gets a
// handshake check and, on success, a reader goroutine.
func (m *Mesh) runAccept() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.connWG.Add(1)
		go m.serveConn(conn)
	}
}

// serveConn validates one inbound connection's handshake and then
// decodes envelope frames until the stream breaks.
func (m *Mesh) serveConn(conn net.Conn) {
	defer m.connWG.Done()
	defer conn.Close()
	// Register under the lock Close sweeps m.conns with, re-checking
	// closing there: a connection accepted just before the listener
	// closed must not register after the sweep, or Close would wait on
	// a reader only the remote peer can end.
	m.mu.Lock()
	if m.closed() {
		m.mu.Unlock()
		return
	}
	m.conns[conn] = struct{}{}
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.conns, conn)
		m.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	payload, err := readFrame(br)
	if err != nil {
		return
	}
	h, err := decodeHello(payload)
	if err != nil {
		writeFrame(conn, encodeReject("bad hello frame"))
		m.count(func(c *Counters) { c.Rejects++ })
		return
	}
	if reason := m.vetPeer(h); reason != "" {
		writeFrame(conn, encodeReject(reason))
		m.count(func(c *Counters) { c.Rejects++ })
		m.trace(obs.OpDrop, fmt.Sprintf("refused P%d: %s", h.Proc, reason))
		return
	}
	if err := writeFrame(conn, encodeWelcome()); err != nil {
		return
	}
	m.count(func(c *Counters) { c.Accepted++ })
	m.cfg.Obs.Count("netmesh.accepted", 1)
	var rbuf []byte               // reused across frames; decoders copy out of it
	var arena connArena           // tags and VC stamps are carved from it; chunks outlive frames
	var envs []transport.Envelope // each frame decodes into it; rcv copies what it keeps
	for {
		payload, err := readFrameInto(br, rbuf)
		if err != nil {
			return
		}
		rbuf = payload
		switch {
		case len(payload) > 0 && payload[0] == frameBatch:
			envs, err = decodeBatch(envs[:0], payload, &arena)
		default:
			var e transport.Envelope
			if e, err = decodeEnvelope(payload, &arena); err == nil {
				envs = append(envs[:0], e)
			}
		}
		if err != nil {
			m.trace(obs.OpDrop, fmt.Sprintf("corrupt frame from P%d: %v", h.Proc, err))
			return
		}
		// A connection carries its handshaken peer's envelopes to Self:
		// misrouted ones and ones claiming another sender are dropped.
		// Every sender stamps its own Self, so a foreign Src is corrupt or
		// forged, and accepting it would open transport state (and draw
		// acks) for a process this connection does not speak for.
		kept := envs[:0]
		for _, e := range envs {
			if e.Dst == m.cfg.Self && e.Src == h.Proc {
				kept = append(kept, e)
			}
		}
		m.count(func(c *Counters) {
			c.FramesIn++
			c.EnvelopesIn += len(kept)
			c.BytesIn += len(payload)
		})
		if len(kept) > 0 {
			m.rcv(kept)
		}
		clear(envs) // the kept slice must not pin a frame's payloads
	}
}

// vetPeer checks a dialer's hello against our own shape; a non-empty
// result is the refusal reason.
func (m *Mesh) vetPeer(h hello) string {
	switch {
	case h.N != len(m.cfg.Addrs):
		return fmt.Sprintf("mesh size %d, want %d", h.N, len(m.cfg.Addrs))
	case int(h.Proc) < 0 || int(h.Proc) >= len(m.cfg.Addrs) || h.Proc == m.cfg.Self:
		return fmt.Sprintf("bad peer id %d", h.Proc)
	case h.Fingerprint != m.cfg.Fingerprint:
		return fmt.Sprintf("fingerprint %q, want %q", h.Fingerprint, m.cfg.Fingerprint)
	}
	return ""
}

// runSender supervises the connection to one peer: dial with seeded
// jittered backoff, handshake, then coalesce the outbox into batch
// frames until the connection breaks, and start over. Envelopes in
// flight on a broken connection are lost by design — the reliable
// sublayer retransmits.
func (m *Mesh) runSender(peer event.ProcID, box *outbox) {
	defer m.wg.Done()
	var conn net.Conn
	var bw *bufio.Writer
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	rd := redialer{base: m.cfg.DialBackoff, max: m.cfg.MaxDialBackoff}
	totalDials := 0
	var batch []transport.Envelope // reused pop buffer
	enc := getEncoder()
	defer putEncoder(enc)
	for {
		var ok bool
		batch, ok = box.popBatch(batch, m.cfg.MaxBatch)
		if !ok {
			return // mesh closing
		}
		// Apply injector faults per envelope, compacting in place;
		// duplicates and delays re-enter via the outbox.
		kept := batch[:0]
		for i := range batch {
			if m.decideFaults(&batch[i], box) {
				kept = append(kept, batch[i])
			}
		}
		if len(kept) == 0 {
			continue
		}
		for conn == nil {
			if m.closed() {
				return
			}
			if totalDials > 0 {
				m.count(func(c *Counters) { c.Redials++ })
			}
			c, err := m.dial(peer, rd.next(m.jitter))
			totalDials++
			if err != nil {
				if errors.Is(err, ErrRejected) {
					m.mu.Lock()
					if m.rejected == nil {
						m.rejected = fmt.Errorf("%w: peer P%d: %v", ErrRejected, peer, err)
					}
					m.mu.Unlock()
					return // incompatible build: retrying cannot help
				}
				continue // backoff already applied inside dial
			}
			conn = c
			bw = bufio.NewWriter(conn)
			rd.success()
		}
		payload := encodeBatch(enc, kept)
		// Counted before the write, so whoever has seen a frame's effect
		// at the peer also sees it counted here.
		m.count(func(c *Counters) {
			c.FramesOut++
			c.EnvelopesOut += len(kept)
			if len(kept) > 1 {
				c.Batches++
			}
			c.BytesOut += len(payload)
		})
		err := writeFrame(bw, payload)
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			conn.Close()
			conn, bw = nil, nil
			continue // batch lost; Reliable retransmits
		}
	}
}

// decideFaults runs the optional injector on one outbound envelope.
// It reports whether the envelope should be written now; duplicates
// and delays are re-queued on the outbox.
func (m *Mesh) decideFaults(e *transport.Envelope, box *outbox) bool {
	in := m.cfg.Injector
	if in == nil {
		return true
	}
	switch in.DecideChan(e.Src, e.Dst, e.Chan) {
	case transport.Drop:
		m.count(func(c *Counters) { c.FaultsInjected++ })
		return false
	case transport.Duplicate:
		m.count(func(c *Counters) { c.FaultsInjected++ })
		box.push(*e)
		return true
	case transport.Delay:
		m.count(func(c *Counters) { c.FaultsInjected++ })
		// Requeue behind whatever is waiting; if the outbox is empty the
		// envelope goes right back out, which is a no-op delay.
		box.push(*e)
		return false
	default:
		return true
	}
}

// redialer computes the per-peer reconnect schedule: exponential
// growth from base, capped at max, reset to zero after a successful
// handshake. Keeping the attempt counter here (instead of a running
// dial tally in runSender) is what makes a reconnect after a
// long-lived connection breaks start back at the base backoff rather
// than the cap — the old tally never reset, so every peer that had
// ever redialed piled up at max backoff and reconnected in lockstep.
type redialer struct {
	base, max time.Duration
	attempt   int
}

// next returns how long to sleep before the upcoming dial attempt:
// zero for the first attempt of a (re)connect cycle, then a jittered
// exponential backoff. rng draws a uniform value in [0, n).
func (d *redialer) next(rng func(n int64) int64) time.Duration {
	d.attempt++
	if d.attempt == 1 {
		return 0
	}
	backoff := d.base << uint(min(d.attempt-2, 16))
	if backoff > d.max {
		backoff = d.max
	}
	jitter := time.Duration(rng(int64(backoff) + 1))
	return backoff/2 + jitter/2
}

// success resets the schedule after a completed handshake so the next
// disconnect starts a fresh cycle at the base backoff.
func (d *redialer) success() { d.attempt = 0 }

// jitter draws a uniform value in [0, n) from the mesh's seeded rng.
func (m *Mesh) jitter(n int64) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rng.Int63n(n)
}

// dial opens, handshakes and vets one connection to peer, sleeping
// delay first (the redialer hands attempt 0 a zero delay).
func (m *Mesh) dial(peer event.ProcID, delay time.Duration) (net.Conn, error) {
	if delay > 0 {
		select {
		case <-m.closing:
			return nil, errors.New("netmesh: closing")
		case <-time.After(delay):
		}
	}
	m.count(func(c *Counters) { c.Dials++ })
	conn, err := net.DialTimeout("tcp", m.cfg.Addrs[peer], time.Second)
	if err != nil {
		return nil, err
	}
	h := hello{Proc: m.cfg.Self, N: len(m.cfg.Addrs), Fingerprint: m.cfg.Fingerprint}
	if err := writeFrame(conn, encodeHello(h)); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	payload, err := readFrame(br)
	if err != nil {
		conn.Close()
		return nil, err
	}
	switch {
	case len(payload) > 0 && payload[0] == frameWelcome:
		m.cfg.Obs.Count("netmesh.dialed", 1)
		return conn, nil
	case len(payload) > 0 && payload[0] == frameReject:
		conn.Close()
		m.count(func(c *Counters) { c.Rejects++ })
		return nil, fmt.Errorf("%w: %s", ErrRejected, decodeReject(payload))
	default:
		conn.Close()
		return nil, errCorruptFrame
	}
}
