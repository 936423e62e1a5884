package crash

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/obs"
	"msgorder/internal/protocol"
)

// EntryKind identifies what a WAL entry journals.
type EntryKind uint8

// WAL entry kinds. Invoke, Broadcast and Receive are handler *inputs*
// (replayed into the recovering instance); Send and Deliver are handler
// *outputs* (used to verify the replayed instance re-emits the same
// effects, which the harness suppresses during replay).
const (
	EntryInvoke EntryKind = iota + 1
	EntryBroadcast
	EntryReceive
	EntrySend
	EntryDeliver
)

// snapshotRecord tags a checkpoint in the file encoding.
const snapshotRecord = 0x7F

// String returns the kind name.
func (k EntryKind) String() string {
	switch k {
	case EntryInvoke:
		return "invoke"
	case EntryBroadcast:
		return "broadcast"
	case EntryReceive:
		return "receive"
	case EntrySend:
		return "send"
	case EntryDeliver:
		return "deliver"
	default:
		return fmt.Sprintf("entry(%d)", uint8(k))
	}
}

// Entry is one journaled protocol event.
type Entry struct {
	Kind EntryKind
	// Msg is the invoked message (EntryInvoke).
	Msg event.Message
	// Msgs are the copies of one logical broadcast (EntryBroadcast).
	Msgs []event.Message
	// Wire is the received or sent wire (EntryReceive, EntrySend). The
	// observability stamp (Wire.VC) is not journaled.
	Wire protocol.Wire
	// ID is the delivered message (EntryDeliver).
	ID event.MsgID
	// Seq is the transport sequence number the received wire arrived
	// under (EntryReceive on the socket runtime; zero elsewhere). A
	// durable restart replays it into the transport's dedup state so a
	// retransmission of an already-handled envelope is absorbed instead
	// of re-delivered.
	Seq uint64
}

// Input reports whether the entry is a handler input (replayed) rather
// than an output (verified).
func (e Entry) Input() bool {
	return e.Kind == EntryInvoke || e.Kind == EntryBroadcast || e.Kind == EntryReceive
}

// ErrWALCorrupt reports a malformed WAL file.
var ErrWALCorrupt = errors.New("crash: corrupt WAL encoding")

// GroupCommit batches the WAL's file mirroring: instead of one write
// (and optional fsync) per journaled event, encoded entries accumulate
// in a commit buffer that flushes as one write when MaxPending entries
// have gathered, when Window expires, or on Flush/Checkpoint/Close.
// Only the durable mirror is batched — the in-memory journal that
// recovery replays and verifies against is always appended
// synchronously, so replay/verify semantics are byte-identical to the
// unbatched path. The trade is the classic group-commit one: an
// OS-process crash can lose at most Window (or MaxPending entries) of
// the journal tail, in exchange for amortizing the write/fsync cost
// across the whole batch.
type GroupCommit struct {
	// MaxPending forces a flush once this many entries are buffered
	// (default 64).
	MaxPending int
	// Window bounds how long an entry may sit unflushed before a
	// background flush fires (default 1ms).
	Window time.Duration
	// Sync fsyncs the file on every flush — one fsync per batch rather
	// than per entry (the group-commit fsync amortization). Off, the OS
	// page cache decides, as the unbatched path always did.
	Sync bool
}

func (gc GroupCommit) withDefaults() GroupCommit {
	if gc.MaxPending <= 0 {
		gc.MaxPending = 64
	}
	if gc.Window <= 0 {
		gc.Window = time.Millisecond
	}
	return gc
}

// WALStats tallies the journal's append and group-commit work.
type WALStats struct {
	// Appends counts entries journaled.
	Appends int
	// Flushes counts file writes (one per commit batch; on the
	// unbatched path, one per entry).
	Flushes int
	// FlushedEntries counts entries carried by those writes.
	FlushedEntries int
	// Syncs counts fsyncs issued (GroupCommit.Sync only).
	Syncs int
}

// WAL is one process's append-only write-ahead log. It holds the
// latest snapshot checkpoint plus every entry journaled since, and
// optionally mirrors both into a file — per entry, or in group-commit
// batches (EnableGroupCommit). Safe for concurrent use (the process
// goroutine appends while the restart goroutine replays).
type WAL struct {
	mu      sync.Mutex
	snap    []byte // latest checkpoint (nil: none)
	entries []Entry
	total   int // entries ever journaled, across checkpoints
	f       *os.File

	gc        *GroupCommit
	pendBuf   []byte // encoded entries awaiting one grouped write
	pendCount int
	timer     *time.Timer // armed while pendBuf is non-empty
	stats     WALStats
}

// NewWAL returns an empty in-memory WAL.
func NewWAL() *WAL { return &WAL{} }

// OpenFileWAL opens (or creates) a file-backed WAL, loading any
// snapshot and entries a previous incarnation persisted.
func OpenFileWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &WAL{f: f}
	if err := w.load(b); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// load parses a serialized WAL into the in-memory mirror.
func (w *WAL) load(b []byte) error {
	for len(b) > 0 {
		if b[0] == snapshotRecord {
			rest, snap, err := readBytes(b[1:])
			if err != nil {
				return err
			}
			w.snap = snap
			w.entries = nil
			b = rest
			continue
		}
		rest, e, err := decodeEntry(b)
		if err != nil {
			return err
		}
		w.entries = append(w.entries, e)
		w.total++
		b = rest
	}
	return nil
}

// EnableGroupCommit switches the file mirror to batched group-commit
// writes (see GroupCommit). Zero-value fields take defaults. The
// in-memory journal is unaffected — replay and output verification see
// exactly the same entries, in the same order, as the per-entry path.
func (w *WAL) EnableGroupCommit(cfg GroupCommit) {
	gc := cfg.withDefaults()
	w.mu.Lock()
	w.gc = &gc
	w.mu.Unlock()
}

// Append journals one entry. The in-memory mirror is updated
// immediately; with group commit enabled, the file write may be
// deferred into the current commit batch.
func (w *WAL) Append(e Entry) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.entries = append(w.entries, e)
	w.total++
	w.stats.Appends++
	if w.f == nil {
		return nil
	}
	if w.gc == nil {
		w.stats.Flushes++
		w.stats.FlushedEntries++
		if _, err := w.f.Write(encodeEntry(nil, e)); err != nil {
			return fmt.Errorf("crash: WAL append: %w", err)
		}
		return nil
	}
	w.pendBuf = encodeEntry(w.pendBuf, e)
	w.pendCount++
	if w.pendCount >= w.gc.MaxPending {
		return w.flushLocked()
	}
	if w.timer == nil {
		w.timer = time.AfterFunc(w.gc.Window, func() {
			w.mu.Lock()
			defer w.mu.Unlock()
			w.timer = nil
			_ = w.flushLocked()
		})
	}
	return nil
}

// Flush writes any batched entries to the file immediately.
func (w *WAL) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

// flushLocked writes the pending commit batch, if any. Caller holds mu.
func (w *WAL) flushLocked() error {
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	if w.pendCount == 0 || w.f == nil {
		w.pendBuf = w.pendBuf[:0]
		w.pendCount = 0
		return nil
	}
	n := w.pendCount
	buf := w.pendBuf
	w.pendBuf = buf[:0] // mu is held across the write, so reuse is safe
	w.pendCount = 0
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("crash: WAL flush: %w", err)
	}
	w.stats.Flushes++
	w.stats.FlushedEntries += n
	if w.gc != nil && w.gc.Sync {
		w.stats.Syncs++
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("crash: WAL sync: %w", err)
		}
	}
	return nil
}

// Stats returns the journal's append/flush tallies so far.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Checkpoint replaces everything journaled so far with a snapshot:
// recovery will restore snap and replay only entries appended after
// this call. The WAL copies snap into the one checkpoint buffer it
// keeps and reuses, so snap stays the caller's (a host re-encodes
// into it at the next checkpoint) and the WAL holds the only retained
// copy; Replay hands out copies of that.
func (w *WAL) Checkpoint(snap []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.snap = append(w.snap[:0], snap...)
	// Keep the journal's backing array for the next cycle; Replay copies
	// entries out, so nothing else holds it.
	clear(w.entries)
	w.entries = w.entries[:0]
	// Pending batched entries are superseded by the snapshot: discard
	// them rather than write bytes the truncate would erase anyway.
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	w.pendBuf = w.pendBuf[:0]
	w.pendCount = 0
	if w.f == nil {
		return nil
	}
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = snapshotRecord
	head := binary.AppendUvarint(hdr[:1], uint64(len(snap)))
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("crash: WAL checkpoint: %w", err)
	}
	if _, err := w.f.WriteAt(head, 0); err != nil {
		return fmt.Errorf("crash: WAL checkpoint: %w", err)
	}
	if _, err := w.f.WriteAt(snap, int64(len(head))); err != nil {
		return fmt.Errorf("crash: WAL checkpoint: %w", err)
	}
	if _, err := w.f.Seek(int64(len(head)+len(snap)), 0); err != nil {
		return fmt.Errorf("crash: WAL checkpoint: %w", err)
	}
	return nil
}

// ObserveCheckpoint records one size-byte checkpoint of inst on s: the
// checkpoint counter, the blob-size histogram and, when inst counts its
// ordering domains (a sharded process), the live-domain gauge.
func ObserveCheckpoint(s *obs.Sink, inst protocol.Process, size int) {
	if !s.Enabled() {
		return
	}
	s.Count("crash.wal.checkpoints", 1)
	s.Observe("crash.checkpoint.bytes", int64(size))
	if k, ok := inst.(interface{ Keys() int }); ok {
		s.Metrics.Gauge("shard.domains.live", int64(k.Keys()))
	}
}

// Replay returns the latest snapshot (nil if none) and a copy of the
// entries journaled since.
func (w *WAL) Replay() ([]byte, []Entry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var snap []byte
	if w.snap != nil {
		snap = append([]byte(nil), w.snap...)
	}
	return snap, append([]Entry(nil), w.entries...)
}

// SinceCheckpoint returns the number of entries journaled since the
// latest checkpoint (or ever, without one).
func (w *WAL) SinceCheckpoint() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.entries)
}

// Total returns the number of entries ever journaled.
func (w *WAL) Total() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// Close flushes any batched entries and releases the backing file, if
// any.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	ferr := w.flushLocked()
	err := w.f.Close()
	w.f = nil
	if err == nil {
		err = ferr
	}
	return err
}

// SameOutput reports whether two output entries describe the same
// effect: identical deliveries, or sends of byte-identical wires
// (ignoring the observability stamp).
func SameOutput(a, b Entry) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case EntryDeliver:
		return a.ID == b.ID
	case EntrySend:
		return a.Wire.From == b.Wire.From && a.Wire.To == b.Wire.To &&
			a.Wire.Kind == b.Wire.Kind && a.Wire.Msg == b.Wire.Msg &&
			a.Wire.Color == b.Wire.Color && a.Wire.Ctrl == b.Wire.Ctrl &&
			a.Wire.Key == b.Wire.Key &&
			bytes.Equal(a.Wire.Tag, b.Wire.Tag)
	default:
		return false
	}
}

// encodeEntry appends e's file encoding to buf.
func encodeEntry(buf []byte, e Entry) []byte {
	buf = append(buf, byte(e.Kind))
	switch e.Kind {
	case EntryInvoke:
		buf = appendMessage(buf, e.Msg)
	case EntryBroadcast:
		buf = binary.AppendUvarint(buf, uint64(len(e.Msgs)))
		for _, m := range e.Msgs {
			buf = appendMessage(buf, m)
		}
	case EntryReceive, EntrySend:
		buf = binary.AppendUvarint(buf, e.Seq)
		buf = appendWire(buf, e.Wire)
	case EntryDeliver:
		buf = binary.AppendUvarint(buf, uint64(e.ID))
	}
	return buf
}

// decodeEntry parses one entry off the front of b.
func decodeEntry(b []byte) ([]byte, Entry, error) {
	if len(b) == 0 {
		return nil, Entry{}, ErrWALCorrupt
	}
	e := Entry{Kind: EntryKind(b[0])}
	b = b[1:]
	var err error
	switch e.Kind {
	case EntryInvoke:
		b, e.Msg, err = readMessage(b)
	case EntryBroadcast:
		var n uint64
		b, n, err = readUvarint(b)
		if err == nil && n > 1<<20 {
			err = ErrWALCorrupt
		}
		for i := uint64(0); err == nil && i < n; i++ {
			var m event.Message
			b, m, err = readMessage(b)
			e.Msgs = append(e.Msgs, m)
		}
	case EntryReceive, EntrySend:
		if b, e.Seq, err = readUvarint(b); err == nil {
			b, e.Wire, err = readWire(b)
		}
	case EntryDeliver:
		var id uint64
		b, id, err = readUvarint(b)
		e.ID = event.MsgID(id)
	default:
		err = ErrWALCorrupt
	}
	if err != nil {
		return nil, Entry{}, err
	}
	return b, e, nil
}

func appendMessage(buf []byte, m event.Message) []byte {
	buf = binary.AppendUvarint(buf, uint64(m.ID))
	buf = binary.AppendUvarint(buf, uint64(m.From))
	buf = binary.AppendUvarint(buf, uint64(m.To))
	buf = binary.AppendUvarint(buf, uint64(m.Color))
	buf = binary.AppendUvarint(buf, uint64(m.Key))
	return buf
}

func readMessage(b []byte) ([]byte, event.Message, error) {
	var m event.Message
	var vals [5]uint64
	var err error
	for i := range vals {
		if b, vals[i], err = readUvarint(b); err != nil {
			return nil, m, err
		}
	}
	m = event.Message{
		ID:    event.MsgID(vals[0]),
		From:  event.ProcID(vals[1]),
		To:    event.ProcID(vals[2]),
		Color: event.Color(vals[3]),
		Key:   event.Key(vals[4]),
	}
	return b, m, nil
}

func appendWire(buf []byte, w protocol.Wire) []byte {
	buf = binary.AppendUvarint(buf, uint64(w.From))
	buf = binary.AppendUvarint(buf, uint64(w.To))
	buf = append(buf, byte(w.Kind), w.Ctrl)
	buf = binary.AppendUvarint(buf, uint64(w.Msg))
	buf = binary.AppendUvarint(buf, uint64(w.Color))
	buf = binary.AppendUvarint(buf, uint64(w.Key))
	buf = binary.AppendUvarint(buf, uint64(len(w.Tag)))
	buf = append(buf, w.Tag...)
	return buf
}

func readWire(b []byte) ([]byte, protocol.Wire, error) {
	var w protocol.Wire
	var from, to uint64
	var err error
	if b, from, err = readUvarint(b); err != nil {
		return nil, w, err
	}
	if b, to, err = readUvarint(b); err != nil {
		return nil, w, err
	}
	if len(b) < 2 {
		return nil, w, ErrWALCorrupt
	}
	w.From, w.To = event.ProcID(from), event.ProcID(to)
	w.Kind, w.Ctrl = protocol.WireKind(b[0]), b[1]
	b = b[2:]
	var msg, color, key uint64
	if b, msg, err = readUvarint(b); err != nil {
		return nil, w, err
	}
	if b, color, err = readUvarint(b); err != nil {
		return nil, w, err
	}
	if b, key, err = readUvarint(b); err != nil {
		return nil, w, err
	}
	w.Msg, w.Color, w.Key = event.MsgID(msg), event.Color(color), event.Key(key)
	var tag []byte
	if b, tag, err = readBytes(b); err != nil {
		return nil, w, err
	}
	if len(tag) > 0 {
		w.Tag = tag
	}
	return b, w, nil
}

func readUvarint(b []byte) ([]byte, uint64, error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, 0, ErrWALCorrupt
	}
	return b[k:], v, nil
}

func readBytes(b []byte) ([]byte, []byte, error) {
	b, n, err := readUvarint(b)
	if err != nil || uint64(len(b)) < n || n > 1<<30 {
		return nil, nil, ErrWALCorrupt
	}
	return b[n:], append([]byte(nil), b[:n]...), nil
}
