package transport

import (
	"maps"
	"math/rand"
	"testing"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
)

// ackModel is the reference Ack: the whole-table scan the range walk
// replaced, over nothing but the sequence counters and the pending key
// set.
type ackModel struct {
	next     map[chanKey]uint64
	pending  map[pendKey]bool
	cumAcked int
}

func (m *ackModel) wrap(ch chanKey) {
	m.next[ch]++
	m.pending[pendKey{ch, m.next[ch]}] = true
}

func (m *ackModel) ack(ch chanKey, seq, cum uint64) {
	delete(m.pending, pendKey{ch, seq})
	for k := range m.pending {
		if k.ch == ch && k.seq <= cum {
			delete(m.pending, k)
			m.cumAcked++
		}
	}
}

func (m *ackModel) cancelTo(p event.ProcID) {
	for k := range m.pending {
		if k.ch[1] == p {
			delete(m.pending, k)
		}
	}
}

// TestAckRangeWalkMatchesTableScan drives a Reliable and the reference
// scan through the same seeded interleavings of Wrap, exact ack,
// cumulative ack (stale, current, and beyond anything sent), CancelTo
// and RestoreState of an earlier snapshot, and demands the same pending
// set and the same CumAcked tally after every step.
func TestAckRangeWalkMatchesTableScan(t *testing.T) {
	chans := []chanKey{{0, 1}, {0, 2}, {1, 0}}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := quietReliable(t)
		m := &ackModel{next: map[chanKey]uint64{}, pending: map[pendKey]bool{}}
		var snap []byte
		var snapNext map[chanKey]uint64
		var snapPending map[pendKey]bool
		for step := 0; step < 400; step++ {
			ch := chans[rng.Intn(len(chans))]
			// Sequence numbers around what the channel has sent, sometimes
			// past it: a mark beyond next must not swallow later Wraps.
			near := func() uint64 { return uint64(rng.Int63n(int64(m.next[ch]) + 4)) }
			switch op := rng.Intn(100); {
			case op < 55:
				for n := 1 + rng.Intn(6); n > 0; n-- {
					r.Wrap(ch[0], ch[1], protocol.Wire{From: ch[0], To: ch[1], Kind: protocol.UserWire})
					m.wrap(ch)
				}
			case op < 65:
				seq := near()
				r.Ack(Envelope{Src: ch[1], Dst: ch[0], Kind: Ack, Seq: seq})
				m.ack(ch, seq, 0)
			case op < 90:
				seq, cum := near(), near()
				r.Ack(Envelope{Src: ch[1], Dst: ch[0], Kind: Ack, Seq: seq, Cum: cum})
				m.ack(ch, seq, cum)
			case op < 93:
				r.CancelTo(ch[1])
				m.cancelTo(ch[1])
			case op < 97:
				snap = r.SnapshotState()
				snapNext, snapPending = maps.Clone(m.next), maps.Clone(m.pending)
			default:
				if snap == nil {
					continue
				}
				if err := r.RestoreState(snap); err != nil {
					t.Fatal(err)
				}
				m.next, m.pending = maps.Clone(snapNext), maps.Clone(snapPending)
			}
			r.mu.Lock()
			same := len(r.pending) == len(m.pending) && r.counts.CumAcked == m.cumAcked
			for k := range r.pending {
				same = same && m.pending[k]
			}
			r.mu.Unlock()
			if !same {
				t.Fatalf("seed %d step %d: pending %d / CumAcked %d, reference scan has %d / %d",
					seed, step, r.Pending(), r.Counters().CumAcked, len(m.pending), m.cumAcked)
			}
		}
	}
}

// TestAckAfterRestoreScansOnce: the first cumulative ack after
// RestoreState has no mark to start from and must still retire the
// restored table; the next one is a range walk again.
func TestAckAfterRestoreScansOnce(t *testing.T) {
	r := quietReliable(t)
	w := protocol.Wire{From: 0, To: 1, Kind: protocol.UserWire}
	for i := 0; i < 100; i++ {
		r.Wrap(0, 1, w)
	}
	snap := r.SnapshotState()
	r.Ack(Envelope{Src: 1, Dst: 0, Kind: Ack, Seq: 90, Cum: 90})
	if err := r.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	// Seqs 1..90 are pending again although a mark of 90 was processed.
	r.Ack(Envelope{Src: 1, Dst: 0, Kind: Ack, Seq: 50, Cum: 50})
	if got := r.Pending(); got != 50 {
		t.Fatalf("pending = %d after the post-restore ack, want 50", got)
	}
	r.Ack(Envelope{Src: 1, Dst: 0, Kind: Ack, Seq: 100, Cum: 100})
	if got := r.Pending(); got != 0 {
		t.Fatalf("pending = %d, want 0", got)
	}
}
