//go:build !race

package netmesh

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"
	"unsafe"

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

// TestArenaSpansFramesOfOneConnection pins the decode arena's
// lifetime: a connection that carries one stamped, tagged envelope per
// frame must carve every stamp and tag from chunks it keeps across
// frames, not buy fresh ones for each frame. Once the tag chunks have
// grown to their cap, 256 such frames cost at most one chunk of each
// kind, and each decode allocates only the result slice.
func TestArenaSpansFramesOfOneConnection(t *testing.T) {
	enc := getEncoder()
	defer putEncoder(enc)
	payload := append([]byte(nil), encodeBatch(enc, batchEnvs(0, 1))...)

	var arena connArena // serveConn's, for the life of the connection
	var envs []transport.Envelope
	decode := func() {
		var err error
		if envs, err = decodeBatch(envs[:0], payload, &arena); err != nil {
			t.Fatal(err)
		}
	}
	for range 1024 {
		decode()
	}
	chunks := 0
	for range 256 {
		vcBefore, prev := cap(arena.vc), envs[0].Wire.Tag
		decode()
		if cap(arena.vc) > vcBefore {
			chunks++
		}
		// A tag carved from the same chunk starts where the last one ended.
		end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), len(prev))
		if unsafe.Pointer(unsafe.SliceData(envs[0].Wire.Tag)) != end {
			chunks++
		}
	}
	if chunks > 2 {
		t.Errorf("256 single-envelope stamped frames took %d arena chunks, want ≤ 2", chunks)
	}
	decode = func() {
		if _, err := decodeBatch(nil, payload, &arena); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(256, decode); avg > 1 {
		t.Errorf("decoding a single-envelope stamped frame allocates %.0f, want ≤ 1 (arena amortized)", avg)
	}
}

// TestSteadyReceivePathAllocationBudget is the receive half of the
// gate: decoding a frame into the connection's kept slice, the inbox's
// push and take, and handleBatch's ack bookkeeping allocate nothing
// once warm, and neither does an envelope's loopback to Self. The frame carries two sources' data envelopes, one source
// with a gap below them, so both cumulative and exact acks are minted.
// Every envelope was accepted beforehand, so the protocol above (whose
// allocations are its own) is never called. The envelopes carry
// fifo-sized tags, carved from the connection's arena: a chunk of up to
// 4 KB serves dozens of frames, so the per-frame average AllocsPerRun
// reports (an integer) reads 0. VC stamps, which only a traced mesh
// sends, are left out; TestArenaSpansFramesOfOneConnection bounds them.
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
				Wire: protocol.Wire{From: src, To: 1, Kind: protocol.UserWire, Msg: event.MsgID(i),
					Tag: binary.AppendUvarint(nil, seq)}})
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
	var arena connArena
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

// TestUserLogAllocationBudget pins the user log's cost: live sends and
// deliveries append to chunks that are never copied, so once the chunks
// have grown to their cap, every logChunkMax events — a send and a
// delivery for each of logChunkMax/2 messages — cost one allocation
// (the chunk list's rare regrowths vanish in the average) and no more
// bytes than the chunks hold. Each send is acked at once, so the
// reliable sublayer's slab stays warm.
func TestUserLogAllocationBudget(t *testing.T) {
	n := logNode(t)
	w := protocol.Wire{From: 0, To: 1, Kind: protocol.UserWire}
	cycle := func() {
		for i := 0; i < logChunkMax/2; i++ {
			w.Msg++
			n.sendWire(w)
			n.deliver(w.Msg)
		}
	}
	cycle() // grow the chunks to their cap

	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	avg := testing.AllocsPerRun(runs, cycle) // plus one warm-up cycle
	runtime.ReadMemStats(&after)
	if avg > 1 {
		t.Errorf("%d sends and deliveries allocate %.0f times, want ≤ 1 (one chunk)", logChunkMax/2, avg)
	}
	chunk := uint64(logChunkMax * unsafe.Sizeof(event.Event{}))
	if got, max := after.TotalAlloc-before.TotalAlloc, (runs+1)*chunk*17/16; got > max {
		t.Errorf("%d cycles allocated %d bytes, want ≤ %d (one %d-byte chunk each, 1/16 slack for the chunk list)",
			runs+1, got, max, chunk)
	}
	if got, want := n.log.n, 2*int(w.Msg); got != want {
		t.Fatalf("log holds %d events, want %d", got, want)
	}
}
