package member

import (
	"fmt"
	"time"

	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/host"
	"msgorder/internal/protocol"
)

// Checkpoint is one process's transferable ordering state at an epoch
// boundary: the latest WAL checkpoint blob (the process host's one
// shape, whichever runtime wrote it) plus the journal suffix since. A joiner
// materializes it into a fresh WAL and durable-boots from that, which
// restores the snapshot, replays the suffix with output verification,
// and continues the departed incarnation exactly.
type Checkpoint struct {
	// Epoch is the membership epoch the state was captured at.
	Epoch uint64
	// Proc is the process slot the state belongs to.
	Proc event.ProcID
	// Snapshot is the WAL checkpoint blob (nil if never checkpointed).
	Snapshot []byte
	// Suffix is the journal since the checkpoint, in order.
	Suffix []crash.Entry
}

// Capture reads a process's transferable state out of its WAL at the
// given epoch boundary. The WAL must be quiesced (no concurrent
// appends): capture happens after the departing incarnation stopped.
func Capture(epoch uint64, proc event.ProcID, w *crash.WAL) Checkpoint {
	snap, entries := w.Replay()
	suffix := make([]crash.Entry, len(entries))
	copy(suffix, entries)
	return Checkpoint{Epoch: epoch, Proc: proc, Snapshot: snap, Suffix: suffix}
}

// Materialize writes the checkpoint into a fresh file WAL at path, in
// the exact shape a durable boot expects: the snapshot as the WAL's
// checkpoint record, then the suffix entries. The path must not name
// an existing WAL with state of its own.
func (c Checkpoint) Materialize(path string) error {
	w, err := crash.OpenFileWAL(path)
	if err != nil {
		return fmt.Errorf("member: materialize: %w", err)
	}
	if c.Snapshot != nil {
		if err := w.Checkpoint(c.Snapshot); err != nil {
			w.Close()
			return fmt.Errorf("member: materialize checkpoint: %w", err)
		}
	}
	for _, e := range c.Suffix {
		if err := w.Append(e); err != nil {
			w.Close()
			return fmt.Errorf("member: materialize append: %w", err)
		}
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("member: materialize close: %w", err)
	}
	return nil
}

// Rebuild reconstructs a protocol instance from the checkpoint through
// the process host: restore the snapshot (the host's one blob shape,
// so either runtime's WAL rebuilds), then replay the suffix inputs with
// effects suppressed, verifying each input's outputs against the
// journaled ones (host.ErrReplayDiverged otherwise). Returns the
// instance — byte-identical to the departed incarnation's by
// Snapshotter determinism plus that verification, its later effects
// discarded — and the number of replayed inputs.
func (c Checkpoint) Rebuild(maker protocol.Maker, procs int) (protocol.Process, int, error) {
	h := host.New(host.Config{Self: c.Proc, Procs: procs,
		Send: func(protocol.Wire) {}, Deliver: func(event.MsgID) {}, Fail: func(error) {}})
	inst := maker()
	_, replayed, err := h.Recover(inst, c.Snapshot, c.Suffix, time.Time{})
	if err != nil {
		return nil, 0, fmt.Errorf("member: rebuild: %w", err)
	}
	return inst, replayed, nil
}

// UserEvents projects a journal suffix onto the paper's user view:
// EntrySend of a user wire becomes the send event x.s, EntryDeliver
// becomes the delivery event x.r, in journal order. Control wires and
// handler inputs are invisible to the user, exactly as in the paper's
// h|s,r projection.
func UserEvents(entries []crash.Entry) []event.Event {
	var out []event.Event
	for _, e := range entries {
		switch e.Kind {
		case crash.EntrySend:
			if e.Wire.Kind == protocol.UserWire {
				out = append(out, event.E(e.Wire.Msg, event.Send))
			}
		case crash.EntryDeliver:
			out = append(out, event.E(e.ID, event.Deliver))
		}
	}
	return out
}
