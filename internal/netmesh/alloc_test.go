//go:build !race

package netmesh

import (
	"bufio"
	"bytes"
	"testing"

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
		if _, err := decodeBatch(payload, &arena); err != nil {
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
		if _, err := decodeBatch(payload, &arena); err != nil {
			t.Fatal(err)
		}
	}); avg > 2 {
		t.Errorf("decoding a single-envelope stamped frame allocates %.0f, want ≤ 2 (arena amortized)", avg)
	}
}
