package member_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/host"
	"msgorder/internal/member"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/registry"
	"msgorder/internal/snapio"
)

func TestTrackerTransitions(t *testing.T) {
	tr := member.NewTracker(4, []event.ProcID{0, 1, 2})
	if got := tr.Epoch(); got != 0 {
		t.Fatalf("initial epoch = %d, want 0", got)
	}
	v := tr.View()
	if v.Count() != 3 || !v.Contains(0) || v.Contains(3) {
		t.Fatalf("initial view wrong: %+v", v)
	}

	if _, err := tr.Join(3); err != nil {
		t.Fatalf("join 3: %v", err)
	}
	if _, err := tr.Join(3); !errors.Is(err, member.ErrAlreadyMember) {
		t.Fatalf("double join error = %v, want ErrAlreadyMember", err)
	}
	if _, err := tr.Leave(1); err != nil {
		t.Fatalf("leave 1: %v", err)
	}
	if _, err := tr.Evict(1); !errors.Is(err, member.ErrNotMember) {
		t.Fatalf("evict absent error = %v, want ErrNotMember", err)
	}
	if _, err := tr.Evict(2); err != nil {
		t.Fatalf("evict 2: %v", err)
	}

	if got := tr.Epoch(); got != 3 {
		t.Fatalf("epoch after 3 transitions = %d, want 3", got)
	}
	log := tr.Log()
	want := []member.Transition{
		{Epoch: 1, Op: member.OpJoin, Proc: 3},
		{Epoch: 2, Op: member.OpLeave, Proc: 1},
		{Epoch: 3, Op: member.OpEvict, Proc: 2},
	}
	if len(log) != len(want) {
		t.Fatalf("log length = %d, want %d", len(log), len(want))
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log[%d] = %+v, want %+v", i, log[i], want[i])
		}
	}

	if err := tr.CheckEpoch(3); err != nil {
		t.Fatalf("CheckEpoch(current): %v", err)
	}
	err := tr.CheckEpoch(1)
	var stale *member.StaleEpochError
	if !errors.As(err, &stale) || stale.Have != 1 || stale.Want != 3 {
		t.Fatalf("CheckEpoch(1) = %v, want StaleEpochError{1,3}", err)
	}
}

func TestViewEncodeDecode(t *testing.T) {
	tr := member.NewTracker(5, []event.ProcID{0, 2, 4})
	tr.Join(1)
	v := tr.View()
	b := v.Encode()
	if !bytes.Equal(b, tr.View().Encode()) {
		t.Fatal("Encode is not deterministic")
	}
	got, err := member.DecodeView(b)
	if err != nil {
		t.Fatalf("DecodeView: %v", err)
	}
	if got.Epoch != v.Epoch || len(got.Present) != len(v.Present) {
		t.Fatalf("round-trip mismatch: %+v vs %+v", got, v)
	}
	for i := range v.Present {
		if got.Present[i] != v.Present[i] {
			t.Fatalf("Present[%d] differs after round-trip", i)
		}
	}
	if _, err := member.DecodeView(b[:2]); err == nil {
		t.Fatal("DecodeView accepted truncated bytes")
	}
}

// journalHarness is a deterministic n-process mini-harness that runs a
// protocol with a FIFO wire queue and journals one target process's
// inputs and outputs into a WAL, exactly as the runtimes do.
type journalHarness struct {
	insts  []protocol.Process
	envs   []*harnessEnv
	queue  []protocol.Wire
	target event.ProcID
	wal    *crash.WAL
	events []event.Event // target's user events, in order
}

type harnessEnv struct {
	h     *journalHarness
	self  event.ProcID
	procs int
}

func (e *harnessEnv) Self() event.ProcID { return e.self }
func (e *harnessEnv) NumProcs() int      { return e.procs }
func (e *harnessEnv) Send(w protocol.Wire) {
	w.From = e.self
	if e.self == e.h.target {
		e.h.wal.Append(crash.Entry{Kind: crash.EntrySend, Wire: w})
		if w.Kind == protocol.UserWire {
			e.h.events = append(e.h.events, event.E(w.Msg, event.Send))
		}
	}
	e.h.queue = append(e.h.queue, w)
}
func (e *harnessEnv) Deliver(id event.MsgID) {
	if e.self == e.h.target {
		e.h.wal.Append(crash.Entry{Kind: crash.EntryDeliver, ID: id})
		e.h.events = append(e.h.events, event.E(id, event.Deliver))
	}
}

func newJournalHarness(t *testing.T, maker protocol.Maker, procs int, target event.ProcID, wal *crash.WAL) *journalHarness {
	t.Helper()
	h := &journalHarness{target: target, wal: wal}
	for p := 0; p < procs; p++ {
		inst := maker()
		env := &harnessEnv{h: h, self: event.ProcID(p), procs: procs}
		inst.Init(env)
		h.insts = append(h.insts, inst)
		h.envs = append(h.envs, env)
	}
	return h
}

func (h *journalHarness) invoke(m event.Message) {
	if m.From == h.target {
		h.wal.Append(crash.Entry{Kind: crash.EntryInvoke, Msg: m})
	}
	h.insts[m.From].OnInvoke(m)
	h.drain()
}

func (h *journalHarness) drain() {
	for len(h.queue) > 0 {
		w := h.queue[0]
		h.queue = h.queue[1:]
		if w.To == h.target {
			h.wal.Append(crash.Entry{Kind: crash.EntryReceive, Wire: w})
		}
		h.insts[w.To].OnReceive(w)
	}
}

// TestTransferByteIdentical is the core transfer guarantee: capture a
// process's WAL mid-run (checkpoint + suffix), materialize it into a
// fresh WAL file, capture that, rebuild an instance from it, and the
// rebuilt instance's snapshot must be byte-identical to the live one's.
func TestTransferByteIdentical(t *testing.T) {
	for _, name := range []string{"fifo", "causal-rst", "sync"} {
		t.Run(name, func(t *testing.T) {
			entry, ok := registry.ByName(name)
			if !ok {
				t.Fatalf("protocol %q not in registry", name)
			}
			const procs = 3
			const target = event.ProcID(1)
			dir := t.TempDir()
			walPath := filepath.Join(dir, "orig.wal")
			wal, err := crash.OpenFileWAL(walPath)
			if err != nil {
				t.Fatalf("open WAL: %v", err)
			}
			h := newJournalHarness(t, entry.Maker, procs, target, wal)

			rec := protocol.NewRecorder(procs)
			var msgs []event.Message
			for i := 0; i < 12; i++ {
				m := rec.NewMessage(event.ProcID(i%procs), event.ProcID((i+1)%procs), event.ColorNone)
				msgs = append(msgs, m)
			}
			for i, m := range msgs {
				h.invoke(m)
				if i == 5 {
					var blob snapio.Writer
					host.WriteCheckpoint(&blob, h.insts[target].(protocol.Snapshotter).Snapshot(), nil)
					if err := wal.Checkpoint(blob.Out()); err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
				}
			}
			liveSnap := h.insts[target].(protocol.Snapshotter).Snapshot()
			if err := wal.Close(); err != nil {
				t.Fatalf("close WAL: %v", err)
			}

			// Capture from the departed incarnation's WAL.
			reopened, err := crash.OpenFileWAL(walPath)
			if err != nil {
				t.Fatalf("reopen WAL: %v", err)
			}
			cp := member.Capture(7, target, reopened)
			reopened.Close()
			if cp.Epoch != 7 || cp.Proc != target || cp.Snapshot == nil {
				t.Fatalf("capture wrong: epoch=%d proc=%d snap=%v", cp.Epoch, cp.Proc, cp.Snapshot != nil)
			}

			// Materialize for a joiner and capture the materialized WAL.
			joinPath := filepath.Join(dir, "join.wal")
			if err := cp.Materialize(joinPath); err != nil {
				t.Fatalf("materialize: %v", err)
			}
			jw, err := crash.OpenFileWAL(joinPath)
			if err != nil {
				t.Fatalf("open joiner WAL: %v", err)
			}
			jcp := member.Capture(8, target, jw)
			jw.Close()
			if len(jcp.Suffix) != len(cp.Suffix) {
				t.Fatalf("materialized suffix length %d, want %d", len(jcp.Suffix), len(cp.Suffix))
			}

			inst, replayed, err := jcp.Rebuild(entry.Maker, procs)
			if err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			if replayed == 0 {
				t.Fatal("rebuild replayed no inputs")
			}
			got := inst.(protocol.Snapshotter).Snapshot()
			if !bytes.Equal(got, liveSnap) {
				t.Fatalf("rebuilt snapshot differs from live instance (%d vs %d bytes)", len(got), len(liveSnap))
			}
		})
	}
}

// TestRebuildDetectsDivergence corrupts a journaled output and checks
// the rebuild refuses to go live.
func TestRebuildDetectsDivergence(t *testing.T) {
	entry, _ := registry.ByName("fifo")
	const procs = 3
	const target = event.ProcID(0)
	wal := crash.NewWAL()
	h := newJournalHarness(t, entry.Maker, procs, target, wal)
	rec := protocol.NewRecorder(procs)
	for i := 0; i < 6; i++ {
		h.invoke(rec.NewMessage(target, event.ProcID(1+(i%2)), event.ColorNone))
	}
	cp := member.Capture(1, target, wal)
	for i := range cp.Suffix {
		if cp.Suffix[i].Kind == crash.EntrySend {
			cp.Suffix[i].Wire.To++ // corrupt a journaled output
			break
		}
	}
	if _, _, err := cp.Rebuild(entry.Maker, procs); !errors.Is(err, host.ErrReplayDiverged) {
		t.Fatalf("rebuild error = %v, want ErrReplayDiverged", err)
	}
}

// TestUserEventsProjection checks the journal-to-user-view projection
// matches the events the live run recorded.
func TestUserEventsProjection(t *testing.T) {
	entry, _ := registry.ByName("causal-rst")
	const procs = 3
	const target = event.ProcID(2)
	wal := crash.NewWAL()
	h := newJournalHarness(t, entry.Maker, procs, target, wal)
	rec := protocol.NewRecorder(procs)
	for i := 0; i < 9; i++ {
		h.invoke(rec.NewMessage(event.ProcID(i%procs), event.ProcID((i+2)%procs), event.ColorNone))
	}
	cp := member.Capture(1, target, wal)
	got := member.UserEvents(cp.Suffix)
	if len(got) != len(h.events) {
		t.Fatalf("projected %d user events, live run recorded %d", len(got), len(h.events))
	}
	for i := range got {
		if got[i] != h.events[i] {
			t.Fatalf("event %d: projected %+v, live %+v", i, got[i], h.events[i])
		}
	}
}

// TestEvictorEvictsPersistentSuspect stops beating one process and
// checks the evictor removes exactly it after the grace period, while
// a briefly suspected process is reprieved.
func TestEvictorEvictsPersistentSuspect(t *testing.T) {
	const procs = 3
	det := crash.NewDetector(procs, crash.DetectorConfig{
		Interval: time.Millisecond, Timeout: 5 * time.Millisecond}, nil)
	defer det.Close()
	tr := member.NewTracker(procs, []event.ProcID{0, 1, 2})
	ev := member.NewEvictor(tr, det, member.EvictorConfig{
		Interval: time.Millisecond, Grace: 10 * time.Millisecond})
	defer ev.Close()

	// Beat 0 and 1 continuously; 2 goes silent.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				det.Beat(0)
				det.Beat(1)
			}
		}
	}()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if !tr.View().Contains(2) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done

	v := tr.View()
	if v.Contains(2) {
		t.Fatal("process 2 was never evicted")
	}
	if !v.Contains(0) || !v.Contains(1) {
		t.Fatalf("live processes evicted: view %+v", v)
	}
	if got := ev.Evicted(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Evicted() = %v, want [2]", got)
	}
	if tr.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", tr.Epoch())
	}
}
