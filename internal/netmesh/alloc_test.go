//go:build !race

package netmesh

import (
	"bufio"
	"bytes"
	"testing"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/transport"
)

// TestSteadySendPathAllocationBudget is the allocation gate for the
// high-throughput path: once buffers are warm, encoding a batch with a
// pooled encoder, popping a batch from the outbox, and reading a frame
// off the wire must all be allocation-free. The test is excluded under
// -race because the detector's instrumentation allocates.
func TestSteadySendPathAllocationBudget(t *testing.T) {
	envs := batchEnvs(0, 32)

	enc := getEncoder()
	defer putEncoder(enc)
	var payload []byte
	if avg := testing.AllocsPerRun(200, func() {
		payload = encodeBatch(enc, envs)
	}); avg != 0 {
		t.Errorf("encodeBatch allocates %.1f per batch on the steady path, want 0", avg)
	}

	box := newOutbox()
	buf := make([]transport.Envelope, 0, len(envs))
	if avg := testing.AllocsPerRun(200, func() {
		for _, e := range envs {
			box.push(e)
		}
		buf, _ = box.popBatch(buf, len(envs))
	}); avg != 0 {
		t.Errorf("outbox push/popBatch allocates %.1f per batch on the steady path, want 0", avg)
	}

	var frame bytes.Buffer
	if err := writeFrame(&frame, payload); err != nil {
		t.Fatal(err)
	}
	data := frame.Bytes()
	r := bytes.NewReader(data)
	br := bufio.NewReader(r)
	rbuf := make([]byte, 0, len(data))
	if avg := testing.AllocsPerRun(200, func() {
		r.Reset(data)
		br.Reset(r)
		p, err := readFrameInto(br, rbuf)
		if err != nil {
			t.Fatal(err)
		}
		rbuf = p
	}); avg != 0 {
		t.Errorf("readFrameInto allocates %.1f per frame on the steady path, want 0", avg)
	}
}

// TestArenaSpansFramesOfOneConnection pins the VC arena's lifetime: a
// connection that carries one stamped envelope per frame must carve
// every stamp from a chunk it keeps across frames, not buy a fresh
// chunk for each frame. 256 such frames cost at most two chunks, and
// each decode allocates only what the envelope itself needs (the
// result slice and the tag copy).
func TestArenaSpansFramesOfOneConnection(t *testing.T) {
	enc := getEncoder()
	defer putEncoder(enc)
	payload := append([]byte(nil), encodeBatch(enc, batchEnvs(0, 1))...)

	var arena []uint64 // serveConn's, for the life of the connection
	chunks := 0
	for i := 0; i < 256; i++ {
		before := cap(arena)
		if _, err := decodeBatch(nil, payload, &arena); err != nil {
			t.Fatal(err)
		}
		if cap(arena) > before {
			chunks++
		}
	}
	if chunks > 2 {
		t.Errorf("256 single-envelope stamped frames took %d arena chunks, want ≤ 2", chunks)
	}
	if avg := testing.AllocsPerRun(256, func() {
		if _, err := decodeBatch(nil, payload, &arena); err != nil {
			t.Fatal(err)
		}
	}); avg > 2 {
		t.Errorf("decoding a single-envelope stamped frame allocates %.0f, want ≤ 2 (arena amortized)", avg)
	}
}

// TestSteadyReceivePathAllocationBudget is the receive half of the
// gate: decoding a frame into the connection's kept slice, the inbox's
// push and take, and handleBatch's ack bookkeeping allocate nothing
// once warm, and neither does an envelope's loopback to Self. The frame carries two sources' data envelopes, one source
// with a gap below them, so both cumulative and exact acks are minted.
// Every envelope was accepted beforehand, so the protocol above (whose
// allocations are its own) is never called. Tags and VC stamps are left
// out: their copies are the decoder's per-envelope cost, which
// TestArenaSpansFramesOfOneConnection bounds.
func TestSteadyReceivePathAllocationBudget(t *testing.T) {
	acks := 0
	n := &Node{cfg: NodeConfig{Self: 1, Procs: 3}, q: newInbox(), ackHi: make([]int32, 3),
		send: func(transport.Envelope) { acks++ }}
	n.tr = transport.NewReliable(transport.Config{RTO: time.Hour, MaxRTO: time.Hour, Tick: time.Hour}, n.send)
	defer n.tr.Close()
	var frame []transport.Envelope
	for i := 1; i <= 16; i++ {
		for _, src := range []event.ProcID{0, 2} {
			seq := uint64(i)
			if src == 2 {
				seq++ // P2's seq 1 never arrives: a gap under all of them
			}
			frame = append(frame, transport.Envelope{Src: src, Dst: 1, Kind: transport.Data, Seq: seq,
				Wire: protocol.Wire{From: src, To: 1, Kind: protocol.UserWire, Msg: event.MsgID(i)}})
		}
	}
	for _, e := range frame {
		n.tr.Accept(e)
	}
	frame = append(frame, transport.Envelope{Src: 0, Dst: 1, Kind: transport.Ack, Seq: 1, Cum: 1})
	enc := getEncoder()
	defer putEncoder(enc)
	payload := append([]byte(nil), encodeBatch(enc, frame)...)

	var envs, queued []transport.Envelope // the connection's and the handler's
	var arena []uint64
	var items []nodeItem
	cycle := func() {
		var err error
		if envs, err = decodeBatch(envs[:0], payload, &arena); err != nil {
			t.Fatal(err)
		}
		n.q.push(nodeItem{kind: itemBatch}, envs)
		var ok bool
		if items, queued, ok = n.q.take(items, queued); !ok || len(items) != 1 || items[0].envs != len(frame) {
			t.Fatalf("take = %d items, %v; want the one %d-envelope batch", len(items), ok, len(frame))
		}
		n.handleBatch(queued[:items[0].envs])
	}
	cycle()
	acks = 0
	const runs = 200
	if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
		t.Errorf("decode → inbox → handleBatch allocates %.1f per frame on the steady path, want 0", avg)
	}
	// Per frame: one cumulative ack per source, plus an exact ack for
	// each of P2's envelopes but the highest (all sit above its gap).
	if want := (runs + 1) * (2 + 15); acks != want {
		t.Errorf("%d acks over %d frames, want %d", acks, runs+1, want)
	}

	// An envelope a node sends itself loops back through the same inbox.
	loop := &Mesh{cfg: MeshConfig{Self: 1}, rcv: n.HandleEnvelopes}
	self := transport.Envelope{Src: 1, Dst: 1, Kind: transport.Ack, Seq: 1}
	if avg := testing.AllocsPerRun(runs, func() {
		loop.Send(self)
		items, queued, _ = n.q.take(items, queued)
	}); avg != 0 {
		t.Errorf("loopback Send → inbox allocates %.1f per envelope, want 0", avg)
	}
}
