package transport

import (
	"encoding/hex"
	"testing"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
)

// Golden SnapshotState encodings of TestRetiredSlotIsReused's Reliable,
// produced by the map-of-records pending table the slab replaced:
// sender counter 0→1 at 3, nothing received, seqs 2 and 3 pending —
// before the forced retransmit (attempt 0) and after it (attempt 1).
const (
	slabSnapBefore = "010100010300000200010200000101000200000000000103000001010003000003aa0b0c00"
	slabSnapAfter  = "010100010300000200010201000101000200000000000103010001010003000003aa0b0c00"
)

// TestRetiredSlotIsReused: Wrap A and B, Ack A, Wrap C — C fills the
// slab slot A retired. A forced retransmit then resends B and C with
// their own payloads and never A, and SnapshotState still encodes
// exactly what the map-of-records table encoded for the same
// operations.
func TestRetiredSlotIsReused(t *testing.T) {
	sent := make(chan Envelope, 16)
	r := NewReliable(Config{RTO: time.Hour, MaxRTO: time.Hour, Tick: time.Millisecond},
		func(e Envelope) { sent <- e })
	defer r.Close()
	mk := func(msg event.MsgID, tag ...byte) protocol.Wire {
		return protocol.Wire{From: 0, To: 1, Kind: protocol.UserWire, Msg: msg, Tag: tag}
	}
	a := r.Wrap(0, 1, mk(1, 0xaa))
	b := r.Wrap(0, 1, mk(2))
	r.mu.Lock()
	slotA := r.pending[pendKey{chanKey{0, 1}, a.Seq}]
	r.mu.Unlock()
	r.Ack(AckFor(a))
	c := r.Wrap(0, 1, mk(3, 0xaa, 0x0b, 0x0c))
	r.mu.Lock()
	slotC := r.pending[pendKey{chanKey{0, 1}, c.Seq}]
	slots := len(r.txs)
	r.mu.Unlock()
	if slotC != slotA || slots != 2 {
		t.Fatalf("C took slot %d of %d, want A's retired slot %d of 2", slotC, slots, slotA)
	}
	if got := hex.EncodeToString(r.SnapshotState()); got != slabSnapBefore {
		t.Fatalf("snapshot before the retransmit:\n got %s\nwant %s", got, slabSnapBefore)
	}

	// PeerUp after PeerDown makes every pending envelope due at once.
	r.PeerDown(1)
	r.PeerUp(1)
	resent := map[uint64]Envelope{}
	deadline := time.After(5 * time.Second)
	for len(resent) < 2 {
		select {
		case e := <-sent:
			resent[e.Seq] = e
		case <-deadline:
			t.Fatalf("resent %v after PeerUp, want seqs %d and %d", resent, b.Seq, c.Seq)
		}
	}
	drainUntilQuiet(t, sent, 20*time.Millisecond)
	if _, ok := resent[a.Seq]; ok {
		t.Fatalf("acked seq %d was retransmitted", a.Seq)
	}
	for _, want := range []Envelope{b, c} {
		got := resent[want.Seq]
		if got.Attempt != 1 || got.Wire.Msg != want.Wire.Msg || string(got.Wire.Tag) != string(want.Wire.Tag) {
			t.Fatalf("seq %d resent as %+v, want attempt 1 of %+v", want.Seq, got, want)
		}
	}
	if got := hex.EncodeToString(r.SnapshotState()); got != slabSnapAfter {
		t.Fatalf("snapshot after the retransmit:\n got %s\nwant %s", got, slabSnapAfter)
	}
}
