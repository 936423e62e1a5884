// Package protocol defines the operational interface for inhibitory
// message-ordering protocols (Section 3.2 of Murty & Garg) and the run
// recorder shared by the simulators.
//
// A protocol instance runs at each process. The harness calls OnInvoke
// when the user requests a message (the x.s* event) and OnReceive when a
// wire message arrives (the x.r* event for user wires). The protocol
// controls exactly the controllable events of the paper: it decides when
// to call Env.Send (executing x.s, possibly delayed past the invoke) and
// when to call Env.Deliver (executing x.r, possibly delayed past the
// receive).
//
// The three protocol classes map onto capabilities:
//
//	tagless — may not attach tags nor send control wires,
//	tagged  — may attach tags to user wires only,
//	general — may additionally send control wires.
//
// The harness enforces the declared class at run time (a tagged protocol
// attempting a control send is a bug worth failing loudly over).
package protocol

import (
	"errors"
	"fmt"
	"sync"

	"msgorder/internal/event"
	"msgorder/internal/run"
	"msgorder/internal/userview"
)

// Class is a protocol capability class.
type Class int

// Capability classes, ordered by increasing power.
const (
	Tagless Class = iota + 1
	Tagged
	General
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Tagless:
		return "tagless"
	case Tagged:
		return "tagged"
	case General:
		return "general"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// WireKind distinguishes user messages from protocol-internal control
// messages on the wire.
type WireKind uint8

// Wire kinds.
const (
	UserWire    WireKind = iota + 1 // carries a user message (+ optional tag)
	ControlWire                     // protocol-internal
)

// Wire is a message in flight.
type Wire struct {
	From, To event.ProcID
	Kind     WireKind
	// Msg is the user message id (UserWire only).
	Msg event.MsgID
	// Color mirrors the user message's color (UserWire only) so receivers
	// need not share a message table.
	Color event.Color
	// Ctrl discriminates control message types within a protocol.
	Ctrl uint8
	// Tag is the piggybacked data (user wires) or control payload.
	Tag []byte
	// Key is the wire's ordering domain, stamped by the sharded runtime
	// (internal/shard) so the receiving side can demultiplex onto the
	// right per-key instance. Like VC it is harness-owned — protocols
	// must neither read nor write it — but unlike VC it is semantic
	// state: it is carried on the real wire, journaled, and included in
	// the explorer's state fingerprints. NoKey on unsharded runs.
	Key event.Key
	// VC is the observability layer's send-time vector-clock stamp.
	// It is set by the harness when tracing is enabled and is not part
	// of the protocol contract: protocols must neither read nor write
	// it, and the explorer's state fingerprint ignores it.
	VC []uint64
}

// TagArena hands out tags carved from chunks it never reuses. A tag is
// immutable once sent and is kept by several holders at once — the
// WAL's mirror, the reliable sublayer's pending table, a receiver's
// holdback — so each carved tag is a capped copy (an append to one
// cannot reach the next), and a chunk lives while any tag carved from
// it does. Chunks start at 64 bytes and double up to 4 KB, so an arena
// that carves few tags costs little. The zero value is ready to use.
type TagArena struct {
	buf []byte // the current chunk; its length is what is carved
}

// Chunk capacities of a TagArena, in bytes.
const (
	tagChunkMin = 64
	tagChunkMax = 4096
)

// Copy returns a copy of b carved from the arena (nil for empty b).
func (a *TagArena) Copy(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if cap(a.buf)-len(a.buf) < len(b) {
		next := min(max(2*cap(a.buf), tagChunkMin), tagChunkMax)
		a.buf = make([]byte, 0, max(len(b), next))
	}
	i := len(a.buf)
	a.buf = append(a.buf, b...)
	return a.buf[i:len(a.buf):len(a.buf)]
}

// Env is the harness-provided environment for one protocol instance.
// All calls made by a process must happen inside its OnInvoke/OnReceive
// handlers (the harness serializes them per process).
type Env interface {
	// Self returns this process's id.
	Self() event.ProcID
	// NumProcs returns the number of processes.
	NumProcs() int
	// Send transmits a wire message. For user wires this executes the
	// send event x.s.
	Send(w Wire)
	// Deliver executes the delivery event x.r of a previously received
	// user message.
	Deliver(id event.MsgID)
}

// Process is one protocol instance.
type Process interface {
	// Init is called once before any events, with the environment.
	Init(env Env)
	// OnInvoke is called when the user requests message m (m.From is this
	// process). The protocol eventually calls Env.Send for it.
	OnInvoke(m event.Message)
	// OnReceive is called when a wire message addressed to this process
	// arrives.
	OnReceive(w Wire)
}

// Maker constructs a fresh protocol instance for one process.
type Maker func() Process

// Snapshotter is implemented by protocol processes whose state can be
// checkpointed for crash recovery. Snapshot must return a deterministic
// encoding of the instance's complete ordering state (the same state
// must always encode to the same bytes, so recovery can be verified);
// Restore must rebuild that state onto a freshly Init'd instance.
// Snapshots let the write-ahead log be truncated: a recovering process
// restores the latest snapshot and replays only the journal suffix.
//
// Two further facts are contract, because callers rely on them. First,
// the buffer Snapshot returns belongs to the instance, which encodes
// every snapshot into one buffer it keeps, so a steady checkpoint
// allocates nothing: the bytes stay valid until the instance's next
// Snapshot, Restore or handler call, and a caller that keeps them
// longer must copy them (the WAL does; Restore must not retain b).
// Second, an instance's ordering state changes only inside Init,
// OnInvoke, OnReceive, OnBroadcast and Restore, so between two such
// calls Snapshot keeps returning the same bytes — which is what lets
// shard's dirty-domain cache hold a clean domain's buffer as is.
type Snapshotter interface {
	Snapshot() []byte
	Restore(b []byte) error
}

// Broadcaster is implemented by protocols with native broadcast support
// (the paper's multicast extension): the harness hands every copy of one
// logical broadcast to the protocol together, so it can stamp them with a
// single timestamp. msgs holds one message per destination, all invoked
// by this process. Protocols without this interface receive the copies as
// individual OnInvoke calls.
type Broadcaster interface {
	OnBroadcast(msgs []event.Message)
}

// Descriptor identifies a protocol implementation and its declared
// capability class.
type Descriptor struct {
	Name  string
	Class Class
}

// Describer is implemented by protocol processes to declare their
// descriptor. The harness uses it to enforce capabilities and label
// results.
type Describer interface {
	Describe() Descriptor
}

// Stats aggregates protocol overhead over a run. The transport fields
// count work below the protocol layer (the live harness's reliable
// sublayer over a lossy network); they stay zero on fault-free runs and
// in the deterministic simulator.
type Stats struct {
	UserMessages    int // user messages sent
	ControlMessages int // control wires sent
	UserTagBytes    int // total bytes piggybacked on user wires
	ControlBytes    int // total control payload bytes
	Deliveries      int

	Retransmits    int // transport-level resends (not recorded as sends)
	DupsDropped    int // duplicate envelopes absorbed by transport dedup
	FaultsInjected int // drops+dups+delays+partition cuts injected

	Crashes        int // process crashes injected (stop + restart)
	Recoveries     int // crash-restart cycles completed
	ReplayedEvents int // WAL entries replayed across all recoveries
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.UserMessages += o.UserMessages
	s.ControlMessages += o.ControlMessages
	s.UserTagBytes += o.UserTagBytes
	s.ControlBytes += o.ControlBytes
	s.Deliveries += o.Deliveries
	s.Retransmits += o.Retransmits
	s.DupsDropped += o.DupsDropped
	s.FaultsInjected += o.FaultsInjected
	s.Crashes += o.Crashes
	s.Recoveries += o.Recoveries
	s.ReplayedEvents += o.ReplayedEvents
}

// ControlPerUser returns the control-message overhead ratio.
func (s Stats) ControlPerUser() float64 {
	if s.UserMessages == 0 {
		return 0
	}
	return float64(s.ControlMessages) / float64(s.UserMessages)
}

// TagBytesPerUser returns the average piggyback size.
func (s Stats) TagBytesPerUser() float64 {
	if s.UserMessages == 0 {
		return 0
	}
	return float64(s.UserTagBytes) / float64(s.UserMessages)
}

// Recorder accumulates the system run observed by a harness. It is safe
// for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	msgs  []event.Message
	procs [][]event.Event
	stats Stats
}

// NewRecorder returns a recorder for n processes.
func NewRecorder(n int) *Recorder {
	return &Recorder{procs: make([][]event.Event, n)}
}

// NewMessage allocates the next user message id and records its invoke
// event.
func (r *Recorder) NewMessage(from, to event.ProcID, color event.Color) event.Message {
	return r.NewKeyedMessage(from, to, color, event.NoKey)
}

// NewKeyedMessage is NewMessage with an ordering key: the message joins
// key's independent ordering domain (event.NoKey = the global domain).
func (r *Recorder) NewKeyedMessage(from, to event.ProcID, color event.Color, key event.Key) event.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := event.Message{
		ID:    event.MsgID(len(r.msgs)),
		From:  from,
		To:    to,
		Color: color,
		Key:   key,
	}
	r.msgs = append(r.msgs, m)
	r.procs[from] = append(r.procs[from], event.E(m.ID, event.Invoke))
	return m
}

// RecordSend records x.s at the sender and accounts tag bytes.
func (r *Recorder) RecordSend(id event.MsgID, tagBytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.msgs[id]
	r.procs[m.From] = append(r.procs[m.From], event.E(id, event.Send))
	r.stats.UserMessages++
	r.stats.UserTagBytes += tagBytes
}

// RecordReceive records x.r* at the destination.
func (r *Recorder) RecordReceive(id event.MsgID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.msgs[id]
	r.procs[m.To] = append(r.procs[m.To], event.E(id, event.Receive))
}

// RecordDeliver records x.r at the destination.
func (r *Recorder) RecordDeliver(id event.MsgID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.msgs[id]
	r.procs[m.To] = append(r.procs[m.To], event.E(id, event.Deliver))
	r.stats.Deliveries++
}

// RecordTransport folds the transport sublayer's counters into the
// stats (live harness only; the deterministic simulator has no lossy
// network to recover from).
func (r *Recorder) RecordTransport(retransmits, dupsDropped, faultsInjected int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Retransmits += retransmits
	r.stats.DupsDropped += dupsDropped
	r.stats.FaultsInjected += faultsInjected
}

// RecordCrashes folds crash-injection counters into the stats (live
// harness only): crashes fired, recoveries completed, and total WAL
// entries replayed while recovering.
func (r *Recorder) RecordCrashes(crashes, recoveries, replayed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Crashes += crashes
	r.stats.Recoveries += recoveries
	r.stats.ReplayedEvents += replayed
}

// RecordControl accounts a control wire.
func (r *Recorder) RecordControl(payloadBytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.ControlMessages++
	r.stats.ControlBytes += payloadBytes
}

// Stats returns a snapshot of the accumulated statistics.
func (r *Recorder) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Message returns the user message with the given id.
func (r *Recorder) Message(id event.MsgID) event.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.msgs[id]
}

// Messages returns a copy of the user message table so far.
func (r *Recorder) Messages() []event.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]event.Message(nil), r.msgs...)
}

// SystemRun validates and returns the recorded system run.
func (r *Recorder) SystemRun() (*run.Run, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return run.New(r.msgs, r.procs)
}

// UserView validates and returns the user's view of the recorded run.
func (r *Recorder) UserView() (*userview.Run, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sys, err := run.New(r.msgs, r.procs)
	if err != nil {
		return nil, err
	}
	return sys.UsersView()
}

// Undelivered returns the ids of invoked messages that were never
// delivered — a liveness violation if the harness has quiesced.
func (r *Recorder) Undelivered() []event.MsgID {
	r.mu.Lock()
	defer r.mu.Unlock()
	delivered := make([]bool, len(r.msgs))
	for _, seq := range r.procs {
		for _, e := range seq {
			if e.Kind == event.Deliver {
				delivered[e.Msg] = true
			}
		}
	}
	var out []event.MsgID
	for i, d := range delivered {
		if !d {
			out = append(out, event.MsgID(i))
		}
	}
	return out
}

// ErrClassViolation reports a protocol exceeding its declared capability
// class (e.g. a tagged protocol sending a control wire).
var ErrClassViolation = errors.New("protocol: capability class violation")

// CheckCapability validates a wire against the sender's declared class.
func CheckCapability(c Class, w Wire) error {
	switch {
	case w.Kind == ControlWire && c != General:
		return fmt.Errorf("%w: %v protocol sent a control wire", ErrClassViolation, c)
	case w.Kind == UserWire && len(w.Tag) > 0 && c == Tagless:
		return fmt.Errorf("%w: tagless protocol attached a tag", ErrClassViolation)
	default:
		return nil
	}
}
