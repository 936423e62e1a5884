package crash

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"msgorder/internal/protocol"
)

// TestCheckpointCycleReusesJournalArray pins the journal's backing
// array across checkpoints: once one cycle has grown it, 64 appends
// plus a checkpoint allocate nothing (regrowing from nil cost seven
// allocations and ~25 KB a cycle).
func TestCheckpointCycleReusesJournalArray(t *testing.T) {
	w := NewWAL()
	blob := make([]byte, 22<<10)
	e := Entry{Kind: EntryReceive, Wire: protocol.Wire{From: 1, To: 0, Kind: protocol.UserWire, Msg: 7}, Seq: 3}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 64; i++ {
			if err := w.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Checkpoint(blob); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("append x64 + checkpoint allocates %.0f times a cycle, want 0", allocs)
	}
	if w.SinceCheckpoint() != 0 || w.Total() != 11*64 {
		t.Fatalf("lengths = %d/%d", w.SinceCheckpoint(), w.Total())
	}
}

// TestReplayIsolatedFromLaterCycles guards the reuse against aliasing:
// what Replay handed to a recovery must not change when the journal it
// was copied from is checkpointed (cleared) and appended to again.
func TestReplayIsolatedFromLaterCycles(t *testing.T) {
	w := NewWAL()
	if err := w.Checkpoint([]byte("first")); err != nil {
		t.Fatal(err)
	}
	for _, e := range walEntries() {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	snap, entries := w.Replay()

	if err := w.Checkpoint([]byte("second")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*len(walEntries()); i++ {
		if err := w.Append(Entry{Kind: EntryDeliver, ID: 99}); err != nil {
			t.Fatal(err)
		}
	}
	if string(snap) != "first" {
		t.Fatalf("replayed snapshot changed to %q", snap)
	}
	if !reflect.DeepEqual(entries, walEntries()) {
		t.Fatalf("replayed entries changed:\n%+v\nwant %+v", entries, walEntries())
	}
	// And the other direction: scribbling on a replayed snapshot must
	// not reach the WAL's own copy.
	snap2, _ := w.Replay()
	snap2[0] = 'X'
	if again, _ := w.Replay(); string(again) != "second" {
		t.Fatalf("WAL snapshot reachable through Replay: %q", again)
	}
}

// TestCheckpointKeepsItsOwnCopy guards the other side of the
// checkpoint contract: the blob passed to Checkpoint stays the
// caller's, so re-encoding into the same buffer afterwards — what a
// host does at its next checkpoint — must not reach what recovery
// reads.
func TestCheckpointKeepsItsOwnCopy(t *testing.T) {
	w := NewWAL()
	buf := []byte("first checkpoint")
	if err := w.Checkpoint(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "scribbled over!!")
	if snap, _ := w.Replay(); string(snap) != "first checkpoint" {
		t.Fatalf("Replay = %q after the caller reused its buffer", snap)
	}
	if err := w.Checkpoint(buf[:5]); err != nil {
		t.Fatal(err)
	}
	copy(buf, "xxxxx")
	if snap, _ := w.Replay(); string(snap) != "scrib" {
		t.Fatalf("Replay = %q after a shorter checkpoint, want %q", snap, "scrib")
	}
}

// TestFileCheckpointRecordBytes pins the on-disk checkpoint record —
// tag, uvarint length, blob, then the entries appended since — written
// as header and blob separately, and its round trip through a reopen,
// for lengths on both sides of the one-byte varint boundary.
func TestFileCheckpointRecordBytes(t *testing.T) {
	for _, size := range []int{0, 2, 127, 128, 22 << 10} {
		blob := make([]byte, size)
		for i := range blob {
			blob[i] = byte(i*7 + 1)
		}
		path := filepath.Join(t.TempDir(), "p0.wal")
		w, err := OpenFileWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range walEntries() { // superseded by the checkpoint
			if err := w.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Checkpoint(bytes.Clone(blob)); err != nil {
			t.Fatal(err)
		}
		tail := walEntries()[3:]
		for _, e := range tail {
			if err := w.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		want := binary.AppendUvarint([]byte{snapshotRecord}, uint64(size))
		want = append(want, blob...)
		for _, e := range tail {
			want = encodeEntry(want, e)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("size %d: file holds %d bytes, want %d", size, len(got), len(want))
		}
		re, err := OpenFileWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		snap, entries := re.Replay()
		re.Close()
		if !bytes.Equal(snap, blob) {
			t.Fatalf("size %d: reopened snapshot differs", size)
		}
		if !reflect.DeepEqual(entries, tail) {
			t.Fatalf("size %d: reopened entries = %+v, want %+v", size, entries, tail)
		}
	}
}
