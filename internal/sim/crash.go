// Crash/restart lifecycle for the live harness. A process is one
// mailbox and one host (internal/host) for life, plus a sequence of
// incarnations: crashing an incarnation makes its goroutine exit at the
// next mailbox pop (a running handler always completes — the journal
// never splits an event), and restarting hands a fresh protocol
// instance to the host's Recover — checkpoint restore, journal replay,
// output verification — before a new goroutine drains the mailbox.
package sim

import (
	"fmt"
	"path/filepath"
	"time"

	"msgorder/internal/crash"
	"msgorder/internal/event"
)

// incarnation fences one lifetime of one process: its goroutine and
// its heartbeats.
type incarnation struct {
	gone   chan struct{} // closed when the process goroutine exits
	hbStop chan struct{} // closed to stop this incarnation's heartbeats
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
	kind := "crash-stop"
	if sp.Restart {
		kind = fmt.Sprintf("crash-restart, down %v", sp.Downtime)
	}
	nw.hosts[sp.Proc].Crash(fmt.Sprintf("%s at release %d", kind, sp.At))

	if sp.Restart {
		// A scheduled restart is outstanding work: the run is not
		// quiescent until the process is back, so Stop waits for the
		// recovery instead of cancelling it.
		nw.work.add(1)
		crashedAt := time.Now()
		t := time.AfterFunc(sp.Downtime, func() {
			defer nw.work.done()
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

// restartProcess brings p back after its downtime: the host restores,
// replays and verifies, then a new incarnation goes live.
func (nw *Network) restartProcess(p event.ProcID, old *incarnation, crashedAt time.Time) {
	<-old.gone
	nw.mu.Lock()
	stopped := nw.stopped
	nw.mu.Unlock()
	if stopped {
		return
	}
	snap, entries := nw.wals[p].Replay()
	_, replayed, err := nw.hosts[p].Recover(nw.maker(), snap, entries, crashedAt)
	if err != nil {
		nw.fail(fmt.Errorf("%w: %w", ErrProtocol, err))
		return
	}
	inc := &incarnation{gone: make(chan struct{}), hbStop: make(chan struct{})}
	nw.crashMu.Lock()
	nw.incs[p] = inc
	nw.downProcs[p] = false
	nw.tallyCrash.recoveries++
	nw.tallyCrash.replayed += replayed
	nw.crashMu.Unlock()

	nw.procs[p].restart()
	nw.tr.PeerUp(p)
	nw.det.MarkCrashed(p, false)
	go nw.runProcess(p, inc)
	go nw.heartbeat(p, inc)
}

// heartbeat feeds the failure detector for one incarnation.
func (nw *Network) heartbeat(p event.ProcID, inc *incarnation) {
	nw.det.Beat(p)
	t := time.NewTicker(nw.det.Config().Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			nw.det.Beat(p)
		case <-inc.hbStop:
			return
		case <-nw.done:
			return
		}
	}
}
