// Package host is the process host the live runtimes share. The paper's
// process model gives every message one lifecycle of four events —
// invoke x.s*, send x.s, receive x.r*, deliver x.r — and a protocol
// acts only by inhibiting s*→s and r*→r. A Host is the runtime side of
// that lifecycle for one process slot, written once: it is the
// protocol's Env, it dispatches the three handler inputs, it journals
// every input before its handler runs and every output as it happens,
// it checkpoints, and it recovers a crashed incarnation by checkpoint
// restore plus journal replay with output verification.
//
// A runtime composes a Host with its communication model and differs
// only in how wires leave (the Send hook) and who picks the next input:
// internal/sim feeds it from a mailbox goroutine under an adversary,
// internal/netmesh from an inbox loop under the reliable sublayer and a
// TCP mesh, and internal/member rebuilds a transferred process with it.
package host

import (
	"errors"
	"fmt"
	"time"

	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/obs"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
)

// ErrReplayDiverged reports that a recovering instance, replaying its
// journal, emitted different sends or deliveries than the incarnation
// that wrote the journal: the protocol's state is not a function of its
// event history, so the recovered instance must not go live.
var ErrReplayDiverged = errors.New("host: recovery replay diverged from journal")

// Config wires a Host to its runtime.
type Config struct {
	// Self is the hosted process's id; Procs the system size.
	Self  event.ProcID
	Procs int
	// WAL journals inputs and outputs; nil runs the process unjournaled.
	WAL *crash.WAL
	// SnapshotEvery checkpoints a Snapshotter protocol each time this
	// many journal entries accumulate (0 = never; recovery replays all).
	SnapshotEvery int
	// RuntimeState, when non-nil, returns the runtime's own part of each
	// checkpoint, which Recover hands back undecoded.
	RuntimeState func() []byte
	// Sink and Probe, when non-nil, instrument the process.
	Sink  *obs.Sink
	Probe *obs.Probe
	// Send carries a live wire that passed the contract checks and was
	// journaled and probed.
	Send func(protocol.Wire)
	// Deliver hands a live, journaled and probed delivery to the user.
	Deliver func(event.MsgID)
	// Fail records a contract violation or a journal write error.
	Fail func(error)
}

// Host owns one process slot's protocol instance across incarnations
// and implements protocol.Env for it. Its methods must be called from
// one goroutine at a time — the runtime's per-process handler loop, or
// the recovery that precedes the next one — except Crash, which may
// overlap the last handler of the incarnation it reports.
type Host struct {
	cfg         Config
	inst        protocol.Process
	snapper     protocol.Snapshotter // inst, when it can checkpoint
	class       protocol.Class
	incarnation int
	replay      bool
	got         []crash.Entry // outputs collected during replay
	blob        snapio.Writer // the last checkpoint's encoding, reused
}

// New returns a host with no instance yet: Boot or Recover installs one.
func New(cfg Config) *Host { return &Host{cfg: cfg} }

// Boot initialises inst as the live instance of a fresh process.
func (h *Host) Boot(inst protocol.Process) {
	h.adopt(inst)
	inst.Init(h)
}

// adopt makes inst the live instance and reads its capability class
// and whether it can checkpoint.
func (h *Host) adopt(inst protocol.Process) {
	h.inst = inst
	h.snapper, _ = inst.(protocol.Snapshotter)
	h.class = protocol.General
	if d, ok := inst.(protocol.Describer); ok {
		h.class = d.Describe().Class
	}
}

// Crash reports that the live incarnation went down; note says how.
func (h *Host) Crash(note string) {
	if s := h.cfg.Sink; s.Enabled() {
		s.Count("sim.crashes", 1)
		s.Trace(obs.Record{Step: s.Step(), Proc: h.cfg.Self, Op: obs.OpCrash, Msg: obs.NoMsg,
			Note: fmt.Sprintf("%s (incarnation %d)", note, h.incarnation)})
	}
}

// Self returns the hosted process's id.
func (h *Host) Self() event.ProcID { return h.cfg.Self }

// NumProcs returns the system size.
func (h *Host) NumProcs() int { return h.cfg.Procs }

// Send is the protocol's send x.s. A live wire is checked (range,
// capability class, kind), journaled and probed before the runtime
// carries it; during replay it is only collected for verification.
func (h *Host) Send(w protocol.Wire) {
	w.From = h.cfg.Self
	if h.replay {
		h.got = append(h.got, crash.Entry{Kind: crash.EntrySend, Wire: w})
		return
	}
	if int(w.To) < 0 || int(w.To) >= h.cfg.Procs {
		h.cfg.Fail(fmt.Errorf("P%d: send to out-of-range process %d", h.cfg.Self, w.To))
		return
	}
	if err := protocol.CheckCapability(h.class, w); err != nil {
		h.cfg.Fail(fmt.Errorf("P%d: %w", h.cfg.Self, err))
		return
	}
	if w.Kind != protocol.UserWire && w.Kind != protocol.ControlWire {
		h.cfg.Fail(fmt.Errorf("P%d: sent wire with invalid kind", h.cfg.Self))
		return
	}
	h.journal(crash.Entry{Kind: crash.EntrySend, Wire: w})
	h.cfg.Probe.Send(&w)
	h.cfg.Send(w)
}

// Deliver is the protocol's deliver x.r: journaled and probed before
// the runtime hands it to the user, collected during replay.
func (h *Host) Deliver(id event.MsgID) {
	if h.replay {
		h.got = append(h.got, crash.Entry{Kind: crash.EntryDeliver, ID: id})
		return
	}
	h.journal(crash.Entry{Kind: crash.EntryDeliver, ID: id})
	h.cfg.Probe.Deliver(h.cfg.Self, id)
	h.cfg.Deliver(id)
}

// Invoke runs the invoke handler x.s* for a user message.
func (h *Host) Invoke(m event.Message) {
	h.journal(crash.Entry{Kind: crash.EntryInvoke, Msg: m})
	h.inst.OnInvoke(m)
	h.checkpoint()
}

// Broadcast runs the invoke handler for every copy of one logical
// broadcast.
func (h *Host) Broadcast(msgs []event.Message) {
	h.journal(crash.Entry{Kind: crash.EntryBroadcast, Msgs: msgs})
	deliverBroadcast(h.inst, msgs)
	h.checkpoint()
}

// Receive runs the receive handler x.r* for an accepted wire; seq is
// its transport sequence number (0 when the runtime has none).
func (h *Host) Receive(w protocol.Wire, seq uint64) {
	h.cfg.Probe.Receive(w)
	// The journal keeps protocol state, not observability annotations:
	// dropping the trace stamp releases the decoder's VC arenas instead
	// of pinning every arriving stamp for the life of the run.
	w.VC = nil
	h.journal(crash.Entry{Kind: crash.EntryReceive, Wire: w, Seq: seq})
	h.inst.OnReceive(w)
	h.checkpoint()
}

func (h *Host) journal(en crash.Entry) {
	if w := h.cfg.WAL; w != nil {
		if err := w.Append(en); err != nil {
			h.cfg.Fail(err)
		}
	}
}

// checkpoint runs after an input's handler — never in between, so a
// checkpoint cannot split an input from its outputs — and writes the
// one blob shape: the protocol snapshot followed by the runtime's part
// (empty without RuntimeState). Both parts are borrowed from their
// encoders and the blob is written into the Writer the host keeps;
// the WAL copies it, so a warm checkpoint allocates nothing.
func (h *Host) checkpoint() {
	w := h.cfg.WAL
	if h.snapper == nil || w == nil || h.cfg.SnapshotEvery <= 0 || w.SinceCheckpoint() < h.cfg.SnapshotEvery {
		return
	}
	var rt []byte
	if h.cfg.RuntimeState != nil {
		rt = h.cfg.RuntimeState()
	}
	h.blob.Reset()
	WriteCheckpoint(&h.blob, h.snapper.Snapshot(), rt)
	blob := h.blob.Out()
	if err := w.Checkpoint(blob); err != nil {
		h.cfg.Fail(err)
		return
	}
	crash.ObserveCheckpoint(h.cfg.Sink, h.inst, len(blob))
}

// WriteCheckpoint writes to w the checkpoint blob every host writes
// and Recover reads: the protocol snapshot, then the runtime part.
func WriteCheckpoint(w *snapio.Writer, proto, runtime []byte) {
	w.Bytes(proto)
	w.Bytes(runtime)
}

// Recover brings inst live from durable state: it restores the
// protocol part of the checkpoint blob (nil: none), replays the
// journal's inputs with every effect suppressed, and verifies each
// input's outputs against the journaled ones, failing with
// ErrReplayDiverged on any difference. Only then does inst become the
// live instance. since is when the process went down (zero: now), the
// start of the recovery latency the host reports. Recover returns the
// blob's runtime part and the number of replayed inputs.
func (h *Host) Recover(inst protocol.Process, blob []byte, entries []crash.Entry, since time.Time) ([]byte, int, error) {
	if since.IsZero() {
		since = time.Now()
	}
	self := h.cfg.Self
	h.replay, h.got = true, h.got[:0]
	inst.Init(h)
	var rt []byte
	if blob != nil {
		r := snapio.NewReader(blob)
		proto := r.Bytes()
		rt = r.Bytes()
		if err := r.Close(); err != nil {
			return nil, 0, fmt.Errorf("P%d checkpoint decode: %w", self, err)
		}
		s, ok := inst.(protocol.Snapshotter)
		if !ok {
			return nil, 0, fmt.Errorf("P%d has a checkpoint but no Snapshotter", self)
		}
		if err := s.Restore(proto); err != nil {
			return nil, 0, fmt.Errorf("P%d restore: %w", self, err)
		}
	}
	var outs []crash.Entry
	for _, en := range entries {
		if !en.Input() {
			outs = append(outs, en)
		}
	}
	oi, replayed := 0, 0
	for _, en := range entries {
		if !en.Input() {
			continue
		}
		apply(inst, en)
		replayed++
		for _, g := range h.got {
			if oi >= len(outs) || !crash.SameOutput(outs[oi], g) {
				return nil, 0, fmt.Errorf("%w: P%d replaying %s entry %d", ErrReplayDiverged, self, en.Kind, replayed)
			}
			oi++
		}
		h.got = h.got[:0]
	}
	if oi != len(outs) {
		return nil, 0, fmt.Errorf("%w: P%d re-emitted %d of %d journaled outputs", ErrReplayDiverged, self, oi, len(outs))
	}
	h.replay, h.got = false, nil
	h.adopt(inst)
	h.incarnation++
	if s := h.cfg.Sink; s.Enabled() {
		lat := time.Since(since)
		s.Count("sim.recoveries", 1)
		s.Observe("crash.recovery.latency.us", lat.Microseconds())
		s.Observe("crash.recovery.replayed", int64(replayed))
		s.Trace(obs.Record{Step: s.Step(), Proc: self, Op: obs.OpRecover, Msg: obs.NoMsg,
			Note: fmt.Sprintf("incarnation %d live after %v, replayed %d entries", h.incarnation, lat.Round(time.Microsecond), replayed)})
	}
	return rt, replayed, nil
}

// apply replays one journaled input through the same calls Invoke,
// Broadcast and Receive made live.
func apply(p protocol.Process, en crash.Entry) {
	switch en.Kind {
	case crash.EntryInvoke:
		p.OnInvoke(en.Msg)
	case crash.EntryBroadcast:
		deliverBroadcast(p, en.Msgs)
	case crash.EntryReceive:
		p.OnReceive(en.Wire)
	}
}

// deliverBroadcast hands one logical broadcast to the protocol, falling
// back to per-copy invokes when it is not a Broadcaster.
func deliverBroadcast(p protocol.Process, msgs []event.Message) {
	if b, ok := p.(protocol.Broadcaster); ok {
		b.OnBroadcast(msgs)
		return
	}
	for _, m := range msgs {
		p.OnInvoke(m)
	}
}
