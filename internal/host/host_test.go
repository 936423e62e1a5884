package host_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/host"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/fifo"
	"msgorder/internal/shard"
)

// pair wires two hosts back to back: every sent wire is queued and
// received by its destination's host, in send order. Only host 0
// journals.
type pair struct {
	hosts [2]*host.Host
	insts [2]protocol.Process
	queue []protocol.Wire
}

func newPair(t *testing.T, maker protocol.Maker, wal *crash.WAL, every int, rt []byte) *pair {
	t.Helper()
	p := &pair{}
	for i := range p.hosts {
		cfg := host.Config{
			Self: event.ProcID(i), Procs: 2,
			Send:    func(w protocol.Wire) { p.queue = append(p.queue, w) },
			Deliver: func(event.MsgID) {},
			Fail:    func(err error) { t.Errorf("P%d failed: %v", i, err) },
		}
		if i == 0 {
			cfg.WAL, cfg.SnapshotEvery = wal, every
			cfg.RuntimeState = func() []byte { return rt }
		}
		p.hosts[i] = host.New(cfg)
		p.insts[i] = maker()
		p.hosts[i].Boot(p.insts[i])
	}
	return p
}

func (p *pair) invoke(m event.Message) {
	p.hosts[m.From].Invoke(m)
	for len(p.queue) > 0 {
		w := p.queue[0]
		p.queue = p.queue[1:]
		p.hosts[w.To].Receive(w, 0)
	}
}

// stamped tags every send with its instance's creation number, so a
// recovering instance never re-emits what the journaled one sent: a
// maker that is not deterministic.
type stamped struct {
	env protocol.Env
	id  byte
}

func (s *stamped) Init(env protocol.Env)     { s.env = env }
func (s *stamped) OnReceive(w protocol.Wire) { s.env.Deliver(w.Msg) }
func (s *stamped) OnInvoke(m event.Message) {
	s.env.Send(protocol.Wire{To: m.To, Kind: protocol.UserWire, Msg: m.ID, Tag: []byte{s.id}})
}

func stampedMaker() protocol.Maker {
	var n byte
	return func() protocol.Process {
		n++
		return &stamped{id: n}
	}
}

// dropLastInput removes the last journaled input that produced an
// output, leaving its outputs behind: replay then re-emits fewer
// outputs than the journal holds.
func dropLastInput(entries []crash.Entry) []crash.Entry {
	for i := len(entries) - 2; i >= 0; i-- {
		if entries[i].Input() && !entries[i+1].Input() {
			return append(entries[:i:i], entries[i+1:]...)
		}
	}
	return entries
}

// TestRecoverVerifiesReplay journals a live two-process run at P0 and
// recovers P0 from that journal: faithfully, and with the journal or
// the maker disturbed, each of which must fail with ErrReplayDiverged.
func TestRecoverVerifiesReplay(t *testing.T) {
	cases := []struct {
		name   string
		maker  protocol.Maker
		tamper func([]crash.Entry) []crash.Entry
		want   string // "" = recovery must succeed
	}{
		{name: "faithful", maker: fifo.Maker},
		{name: "altered output", maker: fifo.Maker, want: "replaying",
			tamper: func(en []crash.Entry) []crash.Entry {
				for i := range en {
					if en[i].Kind == crash.EntrySend {
						en[i].Wire.Msg += 100
						break
					}
				}
				return en
			}},
		{name: "truncated output tail", maker: fifo.Maker, tamper: dropLastInput, want: "re-emitted"},
		{name: "nondeterministic maker", maker: stampedMaker(), want: "replaying"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wal := crash.NewWAL()
			rt := []byte("runtime part")
			p := newPair(t, tc.maker, wal, 7, rt)
			rec := protocol.NewRecorder(2)
			for i := 0; i < 10; i++ {
				p.invoke(rec.NewMessage(event.ProcID(i%2), event.ProcID(1-i%2), event.ColorNone))
			}
			snap, entries := wal.Replay()
			if _, ok := p.insts[0].(protocol.Snapshotter); (ok && snap == nil) || len(entries) == 0 {
				t.Fatalf("workload left checkpoint %v and %d journal entries, want both", snap != nil, len(entries))
			}
			if tc.tamper != nil {
				entries = tc.tamper(entries)
			}
			inputs := 0
			for _, en := range entries {
				if en.Input() {
					inputs++
				}
			}

			h := host.New(host.Config{Self: 0, Procs: 2,
				Send: func(protocol.Wire) {}, Deliver: func(event.MsgID) {}, Fail: func(error) {}})
			inst := tc.maker()
			gotRT, replayed, err := h.Recover(inst, snap, entries, time.Time{})
			if tc.want != "" {
				if !errors.Is(err, host.ErrReplayDiverged) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Recover error = %v, want ErrReplayDiverged (%q)", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if replayed != inputs {
				t.Fatalf("replayed %d inputs, journal holds %d", replayed, inputs)
			}
			if !bytes.Equal(gotRT, rt) {
				t.Fatalf("runtime part = %q, want %q", gotRT, rt)
			}
			live := p.insts[0].(protocol.Snapshotter).Snapshot()
			if got := inst.(protocol.Snapshotter).Snapshot(); !bytes.Equal(got, live) {
				t.Fatal("recovered state differs from the journaled instance's")
			}
		})
	}
}

// TestRecoverAfterEncodersMoveOn: a checkpoint borrows its protocol and
// runtime parts from encoders that reuse their buffers. After it, the
// protocol takes more inputs and snapshots again and the runtime
// re-encodes its part in place; recovery from the WAL must still see
// the checkpoint as written and verify the replay.
func TestRecoverAfterEncodersMoveOn(t *testing.T) {
	maker := shard.New(fifo.Maker)
	wal := crash.NewWAL()
	rt := []byte("runtime part")
	p := newPair(t, maker, wal, 7, rt)
	rec := protocol.NewRecorder(2)
	send := func(from event.ProcID, i int) {
		m := rec.NewMessage(from, 1-from, event.ColorNone)
		m.Key = event.Key(1 + i%4)
		p.invoke(m)
	}
	var ckpt []byte
	for i := 0; ckpt == nil; i++ {
		send(event.ProcID(i%2), i)
		ckpt, _ = wal.Replay()
	}
	for i := 0; i < 2; i++ { // two inputs and two outputs at P0: no checkpoint
		send(1, i)
	}
	p.insts[0].(protocol.Snapshotter).Snapshot()
	copy(rt, "RUNTIME PART")

	snap, entries := wal.Replay()
	if !bytes.Equal(snap, ckpt) || len(entries) != 4 {
		t.Fatalf("WAL holds a %d-byte checkpoint and %d entries, want the first one's %d bytes and 4", len(snap), len(entries), len(ckpt))
	}
	h := host.New(host.Config{Self: 0, Procs: 2,
		Send: func(protocol.Wire) {}, Deliver: func(event.MsgID) {}, Fail: func(error) {}})
	inst := maker()
	gotRT, _, err := h.Recover(inst, snap, entries, time.Time{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if string(gotRT) != "runtime part" {
		t.Fatalf("runtime part = %q, want the one checkpointed", gotRT)
	}
	live := p.insts[0].(protocol.Snapshotter).Snapshot()
	if got := inst.(protocol.Snapshotter).Snapshot(); !bytes.Equal(got, live) {
		t.Fatal("recovered state differs from the journaled instance's")
	}
}
