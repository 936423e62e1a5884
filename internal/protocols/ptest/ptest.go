// Package ptest provides a scripted in-memory environment for
// unit-testing protocol instances without a simulator: tests inject
// invokes and receives directly and inspect the wires sent and messages
// delivered.
package ptest

import (
	"bytes"
	"testing"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
)

// Env is a recording protocol.Env. The zero value is not ready; use
// NewEnv.
type Env struct {
	ID        event.ProcID
	N         int
	Sent      []protocol.Wire
	Delivered []event.MsgID
}

var _ protocol.Env = (*Env)(nil)

// NewEnv returns an environment for process id of n.
func NewEnv(id event.ProcID, n int) *Env {
	return &Env{ID: id, N: n}
}

// Self returns the process id.
func (e *Env) Self() event.ProcID { return e.ID }

// NumProcs returns the process count.
func (e *Env) NumProcs() int { return e.N }

// Send records the wire, stamping From like the real harness.
func (e *Env) Send(w protocol.Wire) {
	w.From = e.ID
	e.Sent = append(e.Sent, w)
}

// Deliver records the delivery.
func (e *Env) Deliver(id event.MsgID) {
	e.Delivered = append(e.Delivered, id)
}

// TakeSent returns and clears the sent wires.
func (e *Env) TakeSent() []protocol.Wire {
	out := e.Sent
	e.Sent = nil
	return out
}

// LastSent returns the most recent wire, or ok=false.
func (e *Env) LastSent() (protocol.Wire, bool) {
	if len(e.Sent) == 0 {
		return protocol.Wire{}, false
	}
	return e.Sent[len(e.Sent)-1], true
}

// DeliveredSeq reports the delivered ids as plain ints for easy
// comparison.
func (e *Env) DeliveredSeq() []int {
	out := make([]int, len(e.Delivered))
	for i, id := range e.Delivered {
		out[i] = int(id)
	}
	return out
}

// RestoreClone snapshots src and restores the snapshot into clone
// (which must already be Init'd). It fails the test unless the clone
// re-encodes to byte-identical bytes — the determinism contract of
// protocol.Snapshotter — and returns the snapshot for further checks:
// src's own buffer, valid until src's next Snapshot, Restore or
// handler call.
func RestoreClone(t testing.TB, src, clone protocol.Process) []byte {
	t.Helper()
	s, c := snapshotters(t, src, clone)
	snap := s.Snapshot()
	restoreStable(t, c, snap)
	return snap
}

// KeptSnapshotRestores checks the ownership half of the
// protocol.Snapshotter contract: it copies src's snapshot as a WAL
// does, lets more hand src further inputs, and has src snapshot again
// into the buffer it keeps. The copy must still restore into clone
// (which must already be Init'd) and re-encode byte-identically. It
// returns the copy.
func KeptSnapshotRestores(t testing.TB, src protocol.Process, more func(), clone protocol.Process) []byte {
	t.Helper()
	s, c := snapshotters(t, src, clone)
	kept := bytes.Clone(s.Snapshot())
	more()
	s.Snapshot()
	restoreStable(t, c, kept)
	return kept
}

func snapshotters(t testing.TB, src, clone protocol.Process) (protocol.Snapshotter, protocol.Snapshotter) {
	t.Helper()
	s, ok := src.(protocol.Snapshotter)
	if !ok {
		t.Fatalf("%T does not implement protocol.Snapshotter", src)
	}
	c, ok := clone.(protocol.Snapshotter)
	if !ok {
		t.Fatalf("%T does not implement protocol.Snapshotter", clone)
	}
	return s, c
}

// restoreStable restores snap into c and fails unless c re-encodes it
// byte-identically, twice: the second encode reuses the first's buffer.
func restoreStable(t testing.TB, c protocol.Snapshotter, snap []byte) {
	t.Helper()
	if err := c.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for range 2 {
		if got := c.Snapshot(); !bytes.Equal(got, snap) {
			t.Fatalf("snapshot not stable across restore:\n got %x\nwant %x", got, snap)
		}
	}
}
