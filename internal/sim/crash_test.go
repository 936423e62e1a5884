package sim

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/host"
	"msgorder/internal/obs"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/causal"
	"msgorder/internal/protocols/fifo"
	"msgorder/internal/protocols/flush"
	"msgorder/internal/protocols/kweaker"
	"msgorder/internal/protocols/sync"
	"msgorder/internal/protocols/tagless"
	"msgorder/internal/transport"
)

// restartPlan crashes every non-coordinator process once (P0 stays up:
// it is the sync sequencer). Short downtimes keep the tests fast; the
// small SnapshotEvery forces checkpoint + journal-suffix recovery
// rather than full-journal replay.
func restartPlan() crash.Plan {
	p := crash.RestartStagger([]event.ProcID{1, 2}, 15, 40, 10*time.Millisecond)
	p.SnapshotEvery = 8
	return p
}

// TestCrashRestartRecoversEveryProtocol is the acceptance run: a seeded
// 50-message workload per catalog protocol with a crash-restart of
// every non-coordinator process. The run must recover, quiesce, and
// deliver every message exactly once (a double delivery would make the
// recorded run invalid and fail Stop).
func TestCrashRestartRecoversEveryProtocol(t *testing.T) {
	cases := []struct {
		name  string
		maker protocol.Maker
		color func(i int) event.Color
	}{
		{"tagless", tagless.Maker, nil},
		{"fifo", fifo.Maker, nil},
		{"kweaker-1", kweaker.Maker(1), nil},
		{"flush", flush.Maker, func(i int) event.Color {
			// Mix ordinary messages with all three barrier kinds.
			return []event.Color{event.ColorNone, event.ColorRed, event.ColorNone, event.ColorBlue, event.ColorGreen}[i%5]
		}},
		{"causal-rst", causal.RSTMaker, nil},
		{"causal-ses", causal.SESMaker, nil},
		{"sync", sync.Maker, nil},
		{"sync-ra", sync.RAMaker, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := New(3, tc.maker, WithSeed(3), WithCrashes(restartPlan()))
			for i := 0; i < 50; i++ {
				req := Request{From: event.ProcID(i % 3), To: event.ProcID((i + 1) % 3)}
				if tc.color != nil {
					req.Color = tc.color(i)
				}
				if err := nw.Invoke(req); err != nil {
					t.Fatalf("invoke %d: %v", i, err)
				}
			}
			res, err := nw.Stop()
			if err != nil {
				t.Fatal(err)
			}
			if !res.View.IsComplete() || len(res.Undelivered) != 0 {
				t.Fatalf("crash-restart run lost messages: undelivered = %v", res.Undelivered)
			}
			if res.Crashes.Fired != 2 {
				t.Fatalf("crashes fired = %d, want 2 (%+v)", res.Crashes.Fired, res.Crashes)
			}
			if res.Stats.Crashes != 2 || res.Stats.Recoveries != 2 {
				t.Fatalf("stats crashes/recoveries = %d/%d, want 2/2", res.Stats.Crashes, res.Stats.Recoveries)
			}
			// ReplayedEvents may legitimately be 0 here: a crash can land
			// right after a checkpoint. TestRecoveryReplaysJournal pins
			// replay down with checkpointing disabled.
		})
	}
}

// stamped tags every send with its instance's creation number: a maker
// that is not deterministic, so a restarted instance cannot re-emit
// what its pre-crash incarnation journaled.
type stamped struct {
	env protocol.Env
	id  byte
}

func (s *stamped) Init(env protocol.Env)     { s.env = env }
func (s *stamped) OnReceive(w protocol.Wire) { s.env.Deliver(w.Msg) }
func (s *stamped) OnInvoke(m event.Message) {
	s.env.Send(protocol.Wire{To: m.To, Kind: protocol.UserWire, Msg: m.ID, Tag: []byte{s.id}})
}

// TestCrashRestartDetectsReplayDivergence crash-restarts a process
// whose maker is not deterministic: its replay diverges from the
// journal, so it must not go live and the run must fail with the
// host's sentinel.
func TestCrashRestartDetectsReplayDivergence(t *testing.T) {
	var made atomic.Int32
	maker := func() protocol.Process { return &stamped{id: byte(made.Add(1))} }
	plan := crash.Plan{
		Crashes:  []crash.Spec{{Proc: 0, At: 10, Restart: true, Downtime: 5 * time.Millisecond}},
		Downtime: 5 * time.Millisecond,
	}
	nw := New(2, maker, WithSeed(3), WithCrashes(plan), WithTimeout(50*time.Millisecond))
	for i := 0; i < 20; i++ {
		if err := nw.Invoke(Request{From: 0, To: 1}); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	if _, err := nw.Stop(); !errors.Is(err, host.ErrReplayDiverged) {
		t.Fatalf("Stop err = %v, want host.ErrReplayDiverged", err)
	}
	if made.Load() != 3 {
		t.Fatalf("maker called %d times, want 3 (two boots, one restart)", made.Load())
	}
}

// TestRecoveryReplaysJournal disables checkpointing so recovery must
// rebuild the crashed process's state by full-journal replay.
func TestRecoveryReplaysJournal(t *testing.T) {
	plan := crash.Plan{
		Crashes:  []crash.Spec{{Proc: 1, At: 60, Restart: true, Downtime: 10 * time.Millisecond}},
		Downtime: 10 * time.Millisecond,
	}
	nw := New(3, fifo.Maker, WithSeed(13), WithCrashes(plan))
	for i := 0; i < 50; i++ {
		if err := nw.Invoke(Request{From: event.ProcID(i % 3), To: event.ProcID((i + 1) % 3)}); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	res, err := nw.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !res.View.IsComplete() || len(res.Undelivered) != 0 {
		t.Fatalf("replay run lost messages: undelivered = %v", res.Undelivered)
	}
	if res.Stats.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", res.Stats.Recoveries)
	}
	if res.Stats.ReplayedEvents == 0 {
		t.Fatal("with no checkpoints, recovery must replay the journal")
	}
}

// TestCrashRestartBroadcast exercises recovery of broadcast protocol
// state (BSS journals whole broadcast batches).
func TestCrashRestartBroadcast(t *testing.T) {
	nw := New(3, causal.BSSMaker, WithSeed(5), WithCrashes(restartPlan()))
	for i := 0; i < 30; i++ {
		if err := nw.Invoke(Request{From: event.ProcID(i % 3), Broadcast: true}); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	res, err := nw.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !res.View.IsComplete() || len(res.Undelivered) != 0 {
		t.Fatalf("broadcast crash run lost messages: undelivered = %v", res.Undelivered)
	}
	if v, bad := res.View.FindCOViolation(); bad {
		t.Fatalf("causal order violated across a crash: %v", v)
	}
	if res.Crashes.Fired != 2 {
		t.Fatalf("crashes fired = %d, want 2", res.Crashes.Fired)
	}
}

// TestCrashRestartUnderLoss composes both fault layers: a lossy,
// duplicating network plus process crashes.
func TestCrashRestartUnderLoss(t *testing.T) {
	nw := New(3, fifo.Maker, WithSeed(7),
		WithFaults(transport.FaultPlan{DropRate: 0.2, DupRate: 0.1, Seed: 7}),
		WithCrashes(restartPlan()))
	for i := 0; i < 40; i++ {
		if err := nw.Invoke(Request{From: event.ProcID(i % 3), To: event.ProcID((i + 1) % 3)}); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	res, err := nw.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !res.View.IsComplete() || len(res.Undelivered) != 0 {
		t.Fatalf("lossy crash run lost messages: undelivered = %v", res.Undelivered)
	}
	if v, bad := res.View.FindCOViolation(); bad {
		t.Fatalf("FIFO safety violated across crash+loss: %v", v)
	}
	if res.Faults.Total() == 0 {
		t.Fatal("fault injection must still run alongside crashes")
	}
}

// TestCrashStopLosesOnlyTheDeadProcess kills P1 forever. The run must
// still quiesce — messages addressed to the corpse stay undelivered (a
// valid prefix run), everything between live processes completes, and
// invokes aimed at the corpse are rejected with ErrCrashed.
func TestCrashStopLosesOnlyTheDeadProcess(t *testing.T) {
	nw := New(3, tagless.Maker, WithSeed(4), WithCrashes(crash.StopOne(1, 10)))
	for i := 0; i < 30; i++ {
		err := nw.Invoke(Request{From: event.ProcID(i % 3), To: event.ProcID((i + 1) % 3)})
		if err != nil && !errors.Is(err, ErrCrashed) {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	res, err := nw.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes.Fired != 1 {
		t.Fatalf("crashes fired = %d, want 1", res.Crashes.Fired)
	}
	if res.Stats.Recoveries != 0 {
		t.Fatalf("a crash-stop must not recover, got %d recoveries", res.Stats.Recoveries)
	}
	for _, id := range res.Undelivered {
		m := res.System.Message(id)
		if m.To != 1 && m.From != 1 {
			t.Fatalf("message %d (P%d->P%d) undelivered; only mail to or from the corpse may be lost",
				id, m.From, m.To)
		}
	}
	// Work between the two live processes must have completed.
	delivered := 0
	for _, m := range res.View.Messages() {
		if m.To != 1 && m.From != 1 {
			delivered++
		}
	}
	if delivered == 0 {
		t.Fatal("no messages between live processes delivered")
	}
}

// TestCrashStopRejectsInvokes checks the ErrCrashed path directly.
func TestCrashStopRejectsInvokes(t *testing.T) {
	nw := New(2, tagless.Maker, WithSeed(1), WithCrashes(crash.StopOne(1, 2)))
	for i := 0; i < 10; i++ {
		nw.Invoke(Request{From: 0, To: 1})
	}
	// Wait for the crash to have fired, then poke the corpse.
	deadline := time.Now().Add(2 * time.Second)
	for nw.crashInj.Counters().Fired == 0 {
		if time.Now().After(deadline) {
			t.Fatal("crash never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if err := nw.Invoke(Request{From: 1, To: 0}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("invoke from corpse: err = %v, want ErrCrashed", err)
	}
	if _, err := nw.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestDetectorObservesCrashAndRecovery runs with a downtime long enough
// that the failure detector must suspect the crashed process, then see
// it come back.
func TestDetectorObservesCrashAndRecovery(t *testing.T) {
	plan := crash.Plan{
		Crashes:  []crash.Spec{{Proc: 1, At: 10, Restart: true, Downtime: 80 * time.Millisecond}},
		Detector: crash.DetectorConfig{Interval: 2 * time.Millisecond, Timeout: 10 * time.Millisecond},
	}
	reg := obs.NewRegistry()
	nw := New(2, tagless.Maker, WithSeed(9), WithCrashes(plan), WithMetrics(reg))
	for i := 0; i < 30; i++ {
		nw.Invoke(Request{From: 0, To: 1})
	}
	res, err := nw.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !res.View.IsComplete() {
		t.Fatal("incomplete")
	}
	if res.Detector.Suspicions == 0 {
		t.Fatalf("an 80ms downtime with a 10ms timeout must be suspected: %+v", res.Detector)
	}
	if res.Detector.Alives == 0 {
		t.Fatalf("the restart's heartbeats must clear the suspicion: %+v", res.Detector)
	}
	if got := reg.Counter("crash.detector.suspicions"); got == 0 {
		t.Fatal("suspicions must flow into the metrics registry")
	}
	if got := reg.Counter("sim.recoveries"); got != 1 {
		t.Fatalf("sim.recoveries = %d, want 1", got)
	}
}

// TestFileBackedWAL runs a crash-restart with the journal mirrored to
// disk, exercising the file WAL in the harness end to end.
func TestFileBackedWAL(t *testing.T) {
	plan := restartPlan()
	plan.WALDir = t.TempDir()
	nw := New(3, fifo.Maker, WithSeed(11), WithCrashes(plan))
	for i := 0; i < 50; i++ {
		if err := nw.Invoke(Request{From: event.ProcID(i % 3), To: event.ProcID((i + 1) % 3)}); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	res, err := nw.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !res.View.IsComplete() || len(res.Undelivered) != 0 {
		t.Fatalf("file-WAL crash run lost messages: undelivered = %v", res.Undelivered)
	}
	if res.Stats.Recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2", res.Stats.Recoveries)
	}
}

// TestEmptyCrashPlanIsIgnored: WithCrashes with no scheduled crashes
// must leave the run on the crash-free fast path — no transport, no
// detector, counters all zero, identical to a plain run.
func TestEmptyCrashPlanIsIgnored(t *testing.T) {
	nw := New(2, tagless.Maker, WithSeed(1), WithCrashes(crash.Plan{SnapshotEvery: 4}))
	for i := 0; i < 10; i++ {
		nw.Invoke(Request{From: 0, To: 1})
	}
	res, err := nw.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if res.Transport != (transport.Counters{}) {
		t.Fatalf("empty crash plan must not engage the transport: %+v", res.Transport)
	}
	if res.Crashes != (crash.InjectorCounters{}) || res.Detector != (crash.DetectorCounters{}) {
		t.Fatalf("empty crash plan left counters: %+v / %+v", res.Crashes, res.Detector)
	}
}

// TestCrashPlanValidation: a plan naming an out-of-range process fails
// the run up front rather than crashing nothing silently.
func TestCrashPlanValidation(t *testing.T) {
	nw := New(2, tagless.Maker, WithSeed(1), WithCrashes(crash.StopOne(7, 5)))
	nw.Invoke(Request{From: 0, To: 1})
	if _, err := nw.Stop(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol for an invalid plan", err)
	}
}
