package netmesh

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/fifo"
	"msgorder/internal/protocols/ptest"
	"msgorder/internal/snapio"
	"msgorder/internal/transport"
)

// logNode builds P0 of a two-process node with no mesh, whose sends the
// peer acknowledges at once, for tests that drive sendWire and deliver
// directly.
func logNode(t *testing.T) *Node {
	n := &Node{cfg: NodeConfig{Self: 0, Procs: 2}}
	n.progress = sync.NewCond(&n.mu)
	n.send = func(e transport.Envelope) { n.tr.Ack(transport.AckFor(e)) }
	n.tr = transport.NewReliable(transport.Config{RTO: time.Hour, MaxRTO: time.Hour, Tick: time.Hour}, n.send)
	t.Cleanup(n.tr.Close)
	return n
}

// TestUserLogSpansChunks pushes more than three chunks' worth of sends
// and deliveries through a node: Events and Deliveries must read what a
// plain append-built history holds, and a caller that scribbles over a
// returned slice must not change what the next call returns.
func TestUserLogSpansChunks(t *testing.T) {
	n := logNode(t)
	if n.Events() != nil || n.Deliveries() != nil {
		t.Fatal("a fresh node's history is not empty")
	}

	var events []event.Event
	var delivered []event.MsgID
	const total = 3*logChunkMin + 5*logChunkMin // past the third chunk's end
	for i := 0; i < total; i++ {
		id := event.MsgID(i)
		if i%3 == 0 {
			n.deliver(id)
			events = append(events, event.E(id, event.Deliver))
			delivered = append(delivered, id)
			continue
		}
		n.sendWire(protocol.Wire{From: 0, To: 1, Kind: protocol.UserWire, Msg: id})
		events = append(events, event.E(id, event.Send))
	}
	if got := len(n.log.chunks); got <= 3 {
		t.Fatalf("%d events fit in %d chunks, want more than 3", total, got)
	}
	for round := 0; round < 2; round++ {
		gotEv, gotDel := n.Events(), n.Deliveries()
		if !reflect.DeepEqual(gotEv, events) {
			t.Fatalf("round %d: Events differ from the reference (%d vs %d events)", round, len(gotEv), len(events))
		}
		if !reflect.DeepEqual(gotDel, delivered) {
			t.Fatalf("round %d: Deliveries differ from the reference (%d vs %d)", round, len(gotDel), len(delivered))
		}
		if cap(gotDel) != len(delivered) {
			t.Errorf("Deliveries has capacity %d, want its length %d", cap(gotDel), len(delivered))
		}
		for i := range gotEv {
			gotEv[i] = event.Event{Msg: -1}
		}
		for i := range gotDel {
			gotDel[i] = -1
		}
	}
}

// TestCarvedTagsAreCapped: every tag a connection decodes, and every tag
// fifo sends, is a slice whose capacity is its length, so an append to
// one copies instead of overwriting its neighbour in the arena. A
// decoded tag is a copy: it survives the next frame being read into the
// connection's reused buffer.
func TestCarvedTagsAreCapped(t *testing.T) {
	var stream bytes.Buffer
	first, second := batchEnvs(1, 4), batchEnvs(2, 4)
	enc := getEncoder()
	for _, envs := range [][]transport.Envelope{first, second} {
		if err := writeFrame(&stream, encodeBatch(enc, envs)); err != nil {
			t.Fatal(err)
		}
	}
	putEncoder(enc)
	br := bufio.NewReader(&stream)
	var arena connArena
	buf, err := readFrameInto(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBatch(nil, buf, &arena)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readFrameInto(br, buf); err != nil { // overwrites buf
		t.Fatal(err)
	}
	var tags [][]byte
	for i, e := range got {
		if !bytes.Equal(e.Wire.Tag, first[i].Wire.Tag) {
			t.Fatalf("decoded tag %d = %q after the next frame was read, want %q", i, e.Wire.Tag, first[i].Wire.Tag)
		}
		tags = append(tags, e.Wire.Tag)
	}
	checkCapped(t, "decoded", tags)

	env := ptest.NewEnv(0, 2)
	p := fifo.Maker()
	p.Init(env)
	for i := 0; i < 300; i++ {
		p.OnInvoke(event.Message{ID: event.MsgID(i), From: 0, To: 1})
	}
	tags = tags[:0]
	for _, w := range env.TakeSent() {
		tags = append(tags, w.Tag)
	}
	checkCapped(t, "fifo", tags)
}

// checkCapped checks that each tag's capacity is its length and that an
// append to one leaves the next untouched.
func checkCapped(t *testing.T, what string, tags [][]byte) {
	t.Helper()
	for i, tag := range tags {
		if cap(tag) != len(tag) {
			t.Fatalf("%s tag %d: capacity %d, length %d", what, i, cap(tag), len(tag))
		}
		if i+1 < len(tags) {
			next := slices.Clone(tags[i+1])
			_ = append(tag, 0xEE, 0xEE, 0xEE)
			if !bytes.Equal(tags[i+1], next) {
				t.Fatalf("%s tag %d: an append to it overwrote tag %d", what, i, i+1)
			}
		}
	}
}

// TestHostileVCCountIsRefused: a 20-byte frame whose one data envelope
// claims a VC of 810 000 counters — a 1.66 GB request when the arena
// was sized at 256 stamps of the claimed length — is refused as
// corrupt before anything is sized by the count, on both frame kinds.
func TestHostileVCCountIsRefused(t *testing.T) {
	body := func(w *snapio.Writer) {
		for _, v := range []int{0, 1, int(transport.Data), 0, 1, 0, 0} { // Src … Attempt
			w.Int(v)
		}
		for range 7 { // Wire.From … Wire.Key
			w.Int(0)
		}
		w.Int(0)      // no tag
		w.Int(810000) // the VC count, and no counters after it
	}
	var batch, single snapio.Writer
	batch.Byte(frameBatch)
	batch.Int(1)
	body(&batch)
	single.Byte(frameEnvelope)
	body(&single)
	if got := len(batch.Out()); got != 20 {
		t.Fatalf("hostile batch frame is %d bytes, want 20", got)
	}

	var arena connArena
	if _, err := decodeBatch(nil, encodeBatch(new(snapio.Writer), batchEnvs(0, 1)), &arena); err != nil {
		t.Fatal(err)
	}
	vcCap := cap(arena.vc)
	if _, err := decodeBatch(nil, batch.Out(), &arena); !errors.Is(err, errCorruptFrame) {
		t.Errorf("decodeBatch of the hostile frame: %v, want errCorruptFrame", err)
	}
	if _, err := decodeEnvelope(single.Out(), &arena); !errors.Is(err, errCorruptFrame) {
		t.Errorf("decodeEnvelope of the hostile frame: %v, want errCorruptFrame", err)
	}
	if cap(arena.vc) != vcCap {
		t.Errorf("VC arena capacity moved from %d to %d", vcCap, cap(arena.vc))
	}
}
