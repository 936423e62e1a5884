// Crash/restart lifecycle for the live harness. A process is one
// mailbox for life plus a sequence of incarnations: crashing an
// incarnation makes its goroutine exit at the next mailbox pop (a
// running handler always completes — the journal never splits an
// event), and restarting builds a fresh protocol instance, restores the
// latest checkpoint, replays the journal suffix with all effects
// suppressed, verifies the replayed outputs match what the pre-crash
// incarnation journaled, and only then goes live again.
package sim

import (
	"fmt"
	"path/filepath"
	"time"

	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/obs"
	"msgorder/internal/protocol"
)

// incarnation is one lifetime of one process: the protocol instance,
// its env, and the channels fencing its goroutine and heartbeats.
type incarnation struct {
	self   event.ProcID
	num    int // 0 for the boot instance
	inst   protocol.Process
	env    *env
	gone   chan struct{} // closed when the process goroutine exits
	hbStop chan struct{} // closed to stop this incarnation's heartbeats
}

// journal appends a WAL entry for this process, when journaling is on.
func (inc *incarnation) journal(e crash.Entry) {
	if w := inc.env.wal; w != nil {
		if err := w.Append(e); err != nil {
			inc.env.nw.fail(err)
		}
	}
}

// openWAL builds process i's write-ahead log: file-backed when the plan
// names a directory, in-memory otherwise.
func (nw *Network) openWAL(i int) *crash.WAL {
	dir := nw.crashes.WALDir
	if dir == "" {
		return crash.NewWAL()
	}
	w, err := crash.OpenFileWAL(filepath.Join(dir, fmt.Sprintf("p%d.wal", i)))
	if err != nil {
		nw.fail(fmt.Errorf("sim: open WAL for P%d: %w", i, err))
		return crash.NewWAL()
	}
	return w
}

// procDown reports whether p is currently crashed (or dead forever).
func (nw *Network) procDown(p event.ProcID) bool {
	nw.crashMu.RLock()
	defer nw.crashMu.RUnlock()
	return nw.downProcs[p]
}

// crashProcess fires one crash spec. It runs on the adversary goroutine
// (via the crash injector's callback) and must not block: it only flips
// flags, prunes the mailbox, and pauses the transport; the heavier
// work — cancelling a dead process's inbound traffic, or restarting —
// happens on spawned goroutines after the incarnation's goroutine has
// provably exited.
func (nw *Network) crashProcess(sp crash.Spec) bool {
	nw.crashMu.Lock()
	if nw.downProcs[sp.Proc] {
		nw.crashMu.Unlock()
		return false // already down (or dead): the spec is skipped
	}
	nw.downProcs[sp.Proc] = true
	if !sp.Restart {
		nw.deadProcs[sp.Proc] = true
	}
	inc := nw.incs[sp.Proc]
	nw.tallyCrash.crashes++
	nw.crashMu.Unlock()

	close(inc.hbStop)
	lost := nw.procs[sp.Proc].crash(sp.Restart)
	nw.work.add(-lost)
	nw.tr.PeerDown(sp.Proc)
	nw.det.MarkCrashed(sp.Proc, true)
	if s := nw.sink; s.Enabled() {
		kind := "crash-stop"
		if sp.Restart {
			kind = fmt.Sprintf("crash-restart, down %v", sp.Downtime)
		}
		s.Count("sim.crashes", 1)
		s.Trace(obs.Record{
			Step: s.Step(), Proc: sp.Proc, Op: obs.OpCrash, Msg: obs.NoMsg,
			Note: fmt.Sprintf("%s at release %d (incarnation %d)", kind, sp.At, inc.num),
		})
	}

	if sp.Restart {
		crashedAt := time.Now()
		t := time.AfterFunc(sp.Downtime, func() {
			nw.restartProcess(sp.Proc, inc, crashedAt)
		})
		nw.mu.Lock()
		if nw.stopped {
			t.Stop()
		} else {
			nw.timers = append(nw.timers, t)
		}
		nw.mu.Unlock()
		return true
	}
	go func() {
		// Wait for the final handler to finish: it may still accept
		// envelopes, and CancelTo must only uncount never-accepted ones.
		<-inc.gone
		nw.work.add(-nw.tr.CancelTo(sp.Proc))
	}()
	return true
}

// restartProcess brings p back after its downtime: restore, replay,
// verify, then go live.
func (nw *Network) restartProcess(p event.ProcID, old *incarnation, crashedAt time.Time) {
	<-old.gone
	nw.mu.Lock()
	stopped := nw.stopped
	nw.mu.Unlock()
	if stopped {
		return
	}

	inst := nw.maker()
	e := &env{nw: nw, self: p, replay: true}
	inst.Init(e)

	wal := nw.wals[p]
	snap, entries := wal.Replay()
	if snap != nil {
		s, ok := inst.(protocol.Snapshotter)
		if !ok {
			nw.fail(fmt.Errorf("%w: P%d has a checkpoint but no Snapshotter", ErrProtocol, p))
			return
		}
		if err := s.Restore(snap); err != nil {
			nw.fail(fmt.Errorf("%w: P%d restore: %v", ErrProtocol, p, err))
			return
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
		switch en.Kind {
		case crash.EntryInvoke:
			inst.OnInvoke(en.Msg)
		case crash.EntryBroadcast:
			deliverBroadcast(inst, en.Msgs)
		case crash.EntryReceive:
			inst.OnReceive(en.Wire)
		}
		replayed++
		for _, g := range e.got {
			if oi >= len(outs) || !crash.SameOutput(outs[oi], g) {
				nw.fail(fmt.Errorf("%w: P%d replaying %s entry %d", ErrReplayDiverged, p, en.Kind, replayed))
				return
			}
			oi++
		}
		e.got = e.got[:0]
	}
	if oi != len(outs) {
		nw.fail(fmt.Errorf("%w: P%d re-emitted %d of %d journaled outputs", ErrReplayDiverged, p, oi, len(outs)))
		return
	}

	// Go live. The env flips out of replay mode before the goroutine
	// starts, so the new incarnation journals and sends for real.
	e.replay = false
	e.wal = wal
	e.got = nil
	ninc := &incarnation{
		self: p, num: old.num + 1, inst: inst, env: e,
		gone: make(chan struct{}), hbStop: make(chan struct{}),
	}
	nw.crashMu.Lock()
	nw.incs[p] = ninc
	nw.downProcs[p] = false
	nw.tallyCrash.recoveries++
	nw.tallyCrash.replayed += replayed
	nw.crashMu.Unlock()

	nw.procs[p].restart()
	nw.tr.PeerUp(p)
	nw.det.MarkCrashed(p, false)
	if s := nw.sink; s.Enabled() {
		lat := time.Since(crashedAt)
		s.Count("sim.recoveries", 1)
		s.Observe("crash.recovery.latency.us", lat.Microseconds())
		s.Observe("crash.recovery.replayed", int64(replayed))
		s.Trace(obs.Record{
			Step: s.Step(), Proc: p, Op: obs.OpRecover, Msg: obs.NoMsg,
			Note: fmt.Sprintf("incarnation %d live after %v, replayed %d entries", ninc.num, lat.Round(time.Microsecond), replayed),
		})
	}
	go nw.runProcess(ninc)
	go nw.heartbeat(ninc)
}

// maybeCheckpoint snapshots a Snapshotter protocol once enough entries
// accumulated since the last checkpoint, truncating its journal. Runs
// only between handlers on the process's own goroutine, so a checkpoint
// never splits one handler's input from its outputs.
func (nw *Network) maybeCheckpoint(inc *incarnation) {
	w := inc.env.wal
	if w == nil || nw.crashes.SnapshotEvery <= 0 || w.SinceCheckpoint() < nw.crashes.SnapshotEvery {
		return
	}
	s, ok := inc.inst.(protocol.Snapshotter)
	if !ok {
		return
	}
	snap := s.Snapshot()
	if err := w.Checkpoint(snap); err != nil {
		nw.fail(err)
		return
	}
	crash.ObserveCheckpoint(nw.sink, inc.inst, len(snap))
}

// heartbeat feeds the failure detector for one incarnation.
func (nw *Network) heartbeat(inc *incarnation) {
	nw.det.Beat(inc.self)
	t := time.NewTicker(nw.det.Config().Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			nw.det.Beat(inc.self)
		case <-inc.hbStop:
			return
		case <-nw.done:
			return
		}
	}
}
