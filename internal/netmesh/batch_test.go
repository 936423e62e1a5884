package netmesh

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/tagless"
	"msgorder/internal/transport"
)

// batchEnvs builds a distinctive envelope run so aliasing bugs show up
// as value corruption, not just crashes.
func batchEnvs(src, n int) []transport.Envelope {
	envs := make([]transport.Envelope, n)
	for i := range envs {
		envs[i] = transport.Envelope{
			Src: event.ProcID(src), Dst: 1, Kind: transport.Data, Seq: uint64(src*1000 + i + 1),
			Wire: protocol.Wire{From: event.ProcID(src), To: 1, Kind: protocol.UserWire,
				Msg: event.MsgID(i), Tag: []byte(fmt.Sprintf("tag-%d-%d", src, i)),
				VC: []uint64{uint64(src), uint64(i)}},
		}
	}
	return envs
}

func TestBatchCodecRoundTrip(t *testing.T) {
	runs := map[string][]transport.Envelope{}
	for _, n := range []int{1, 2, 7, 64} {
		envs := batchEnvs(3, n)
		envs[0].Cum = 41 // exercise the pipelined-ack field through the batch path
		runs[fmt.Sprintf("data n=%d", n)] = envs
	}
	// Control envelopes — acks (exact; cumulative on a multiplexed
	// channel) and a beat — are encoded as their header alone.
	ctrl := []transport.Envelope{
		{Src: 1, Dst: 3, Kind: transport.Ack, Seq: 5},
		{Src: 1, Dst: 3, Kind: transport.Ack, Seq: 300, Cum: 299, Chan: 77},
		{Src: 1, Dst: 3, Kind: transport.Beat},
	}
	runs["ack alone"] = ctrl[:1]
	runs["beat alone"] = ctrl[2:]
	runs["control only"] = ctrl
	// Header-only envelopes between, before and after full ones: a
	// decoder that reads one field too many or too few mis-frames the rest.
	data := batchEnvs(3, 3)
	runs["interleaved"] = []transport.Envelope{ctrl[0], data[0], ctrl[1], ctrl[2], data[1], data[2], ctrl[0]}
	var arena connArena
	for name, envs := range runs {
		enc := getEncoder()
		payload := encodeBatch(enc, envs)
		got, err := decodeBatch(nil, payload, &arena)
		putEncoder(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, envs) {
			t.Fatalf("%s: round trip = %+v, want %+v", name, got, envs)
		}
	}
}

func TestDecodeBatchRejectsCorrupt(t *testing.T) {
	// batchOf returns a private copy of the batch payload for envs.
	batchOf := func(envs ...transport.Envelope) []byte {
		enc := getEncoder()
		defer putEncoder(enc)
		return append([]byte(nil), encodeBatch(enc, envs)...)
	}
	good := batchOf(batchEnvs(0, 3)...)
	ack := transport.Envelope{Src: 1, Dst: 0, Kind: transport.Ack, Seq: 300, Cum: 299}
	oneAck := batchOf(ack)
	// The same header with Kind Data: the decoder must go on to demand a
	// Wire where an ack would have ended.
	asData := ack
	asData.Kind = transport.Data
	oneData := batchOf(asData)
	cases := [][]byte{
		nil,
		{frameBatch},                         // no count
		{frameEnvelope, 1},                   // wrong kind
		good[:len(good)-1],                   // truncated body
		append(append([]byte{}, good...), 9), // trailing junk
		oneAck[:len(oneAck)-2],               // ack truncated inside its header
		oneData[:len(oneAck)],                // data truncated exactly where an ack would end
	}
	if len(oneData) <= len(oneAck) {
		t.Fatalf("a data envelope (%d bytes) should outweigh its ack twin (%d bytes)", len(oneData), len(oneAck))
	}
	// A batch whose count exceeds maxBatch must be refused before any
	// allocation is attempted.
	enc2 := getEncoder()
	enc2.Reset()
	enc2.Byte(frameBatch)
	enc2.Int(maxBatch + 1)
	cases = append(cases, append([]byte(nil), enc2.Out()...))
	putEncoder(enc2)
	// So must a zero or negative count.
	enc3 := getEncoder()
	enc3.Reset()
	enc3.Byte(frameBatch)
	enc3.Int(0)
	cases = append(cases, append([]byte(nil), enc3.Out()...))
	putEncoder(enc3)
	for i, b := range cases {
		if _, err := decodeBatch(nil, b, new(connArena)); err == nil {
			t.Fatalf("case %d: decodeBatch accepted corrupt input %v", i, b)
		}
	}
}

// TestPopBatchClosedDrains: close with a queued envelope must still hand
// it out before reporting the outbox dead.
func TestPopBatchClosedDrains(t *testing.T) {
	box := newOutbox()
	box.push(transport.Envelope{Seq: 1})
	box.close()
	if got, ok := box.popBatch(nil, 64); !ok || len(got) != 1 {
		t.Fatalf("popBatch after close = %v, %v", got, ok)
	}
	if _, ok := box.popBatch(nil, 64); ok {
		t.Fatal("drained closed outbox still reported live")
	}
}

// TestBatchSplitAcrossReconnect kills the receiving mesh endpoint
// mid-stream and restarts it on the same address: the sender must
// redial, and batches queued across the break must reach the new
// incarnation (in-flight envelopes at the break are lost by design —
// the reliable sublayer above retransmits).
func TestBatchSplitAcrossReconnect(t *testing.T) {
	addrs := freePorts(t, 2)
	var mu sync.Mutex
	seen := map[uint64]bool{}
	rcv := func(envs []transport.Envelope) {
		mu.Lock()
		for _, e := range envs {
			seen[e.Seq] = true
		}
		mu.Unlock()
	}
	const fp = "reconnect-test"
	recv, err := NewMesh(MeshConfig{Self: 1, Addrs: addrs, Fingerprint: fp}, rcv)
	if err != nil {
		t.Fatal(err)
	}
	send, err := NewMesh(MeshConfig{Self: 0, Addrs: addrs, Fingerprint: fp,
		DrainTimeout: 50 * time.Millisecond}, func([]transport.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	sendUntil := func(from uint64, arrived func() bool) uint64 {
		deadline := time.Now().Add(15 * time.Second)
		seq := from
		for !arrived() {
			if time.Now().After(deadline) {
				t.Fatalf("nothing arrived by seq %d", seq)
			}
			seq++
			send.Send(transport.Envelope{Src: 0, Dst: 1, Kind: transport.Data, Seq: seq})
			time.Sleep(time.Millisecond)
		}
		return seq
	}
	has := func(lo uint64) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			for s := range seen {
				if s > lo {
					return true
				}
			}
			return false
		}
	}
	last := sendUntil(0, has(0))
	recv.Close()

	// Restart the receiver on the same address; the port was just freed,
	// but give the OS a few tries to hand it back.
	var recv2 *Mesh
	for i := 0; i < 100; i++ {
		if recv2, err = NewMesh(MeshConfig{Self: 1, Addrs: addrs, Fingerprint: fp}, rcv); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("receiver could not rebind %s: %v", addrs[1], err)
	}
	defer recv2.Close()

	sendUntil(last+1000, has(last+1000))
	if c := send.Counters(); c.Redials == 0 {
		t.Fatalf("sender never redialed across the break: %+v", c)
	}
}

// TestAckPipelineDedupAfterDuplicatedBatch replays a whole data batch
// at the receiving node: the duplicate must be absorbed (no second
// delivery), re-acknowledged cumulatively, and the receiver's
// high-water mark must cover the batch so the seen-set stays pruned.
// The batch also arrives with a gap first, so the exact-ack fallback
// for sequence numbers above the cumulative mark is exercised too.
func TestAckPipelineDedupAfterDuplicatedBatch(t *testing.T) {
	nodes := startMeshNodes(t, 2, tagless.Maker, nil)
	mk := func(seq uint64, id event.MsgID) transport.Envelope {
		return transport.Envelope{Src: 0, Dst: 1, Kind: transport.Data, Seq: seq,
			Wire: protocol.Wire{From: 0, To: 1, Kind: protocol.UserWire, Msg: id}}
	}
	inject := func(envs ...transport.Envelope) {
		nodes[1].q.push(nodeItem{kind: itemBatch}, envs)
	}

	// A batch with a gap: seqs 2,3 arrive before 1. The cumulative mark
	// cannot advance, so both need exact acks; deliveries still happen.
	inject(mk(2, 1), mk(3, 2))
	if err := nodes[1].WaitDeliveries(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if cum := nodes[1].tr.CumFor(mk(2, 1)); cum != 0 {
		t.Fatalf("cum advanced over a gap: %d", cum)
	}
	// The gap fills: cum jumps over the whole contiguous run.
	inject(mk(1, 0))
	if err := nodes[1].WaitDeliveries(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if cum := nodes[1].tr.CumFor(mk(1, 0)); cum != 3 {
		t.Fatalf("cum = %d after gap filled, want 3", cum)
	}

	// The duplicated batch: all three seqs again in one frame.
	inject(mk(1, 0), mk(2, 1), mk(3, 2))
	deadline := time.Now().Add(5 * time.Second)
	for nodes[1].TransportCounters().DupsDropped < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("dups dropped = %d, want 3", nodes[1].TransportCounters().DupsDropped)
		}
		time.Sleep(time.Millisecond)
	}
	if got := nodes[1].Deliveries(); len(got) != 3 {
		t.Fatalf("duplicated batch re-delivered: %v", got)
	}
	// The duplicate batch must still be re-acknowledged (the original
	// acks may have been lost): the sender side sees ack traffic.
	deadline = time.Now().Add(5 * time.Second)
	for nodes[0].TransportCounters().AcksReceived == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no acks reached the sender side")
		}
		time.Sleep(time.Millisecond)
	}
	if err := nodes[1].Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCodecPoolNeverAliasesDecodedEnvelopes is the -race soak for the
// pooled-buffer path: many goroutines check encoders out, encode,
// decode into a slice each keeps (as a connection keeps one), return
// the encoder, and only then verify the decoded envelopes — if
// decodeBatch left anything aliasing the pooled buffer, a concurrent
// reuse corrupts it and the comparison (or the race detector) fails.
// Each round's consumer keeps a copy of the decoded batch, as the
// inbox does; the next round's decode into the same slice must leave
// that copy untouched.
func TestCodecPoolNeverAliasesDecodedEnvelopes(t *testing.T) {
	const goroutines, rounds = 8, 300
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var prev []transport.Envelope
			var prevWant []transport.Envelope
			var arena connArena          // one per goroutine, as one per connection
			var dec []transport.Envelope // likewise the decode slice
			for i := 0; i < rounds; i++ {
				want := batchEnvs(g, 1+i%9)
				enc := getEncoder()
				payload := encodeBatch(enc, want)
				var err error
				dec, err = decodeBatch(dec[:0], payload, &arena)
				putEncoder(enc) // encoder back in the pool before we look at the result
				if err != nil {
					errs <- err
					return
				}
				got := slices.Clone(dec) // the consumer's copy
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("g%d round %d: decoded batch corrupted", g, i)
					return
				}
				// The previous round's decode must survive this round's
				// pool reuse untouched.
				if prev != nil && !reflect.DeepEqual(prev, prevWant) {
					errs <- fmt.Errorf("g%d round %d: earlier decode mutated by pool reuse", g, i)
					return
				}
				prev, prevWant = got, want
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := CodecPoolStats(); st.Gets == 0 {
		t.Fatal("pool counters never moved")
	}
}

// TestReadFrameIntoReusesBuffer checks the frame reader's reuse
// contract: consecutive frames land in the same backing array, and the
// decoded envelopes survive the buffer being overwritten.
func TestReadFrameIntoReusesBuffer(t *testing.T) {
	var net bytes.Buffer
	first := batchEnvs(1, 4)
	second := batchEnvs(2, 4)
	enc := getEncoder()
	if err := writeFrame(&net, encodeBatch(enc, first)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&net, encodeBatch(enc, second)); err != nil {
		t.Fatal(err)
	}
	putEncoder(enc)
	br := bufio.NewReader(&net)
	buf, err := readFrameInto(br, make([]byte, 0, 1<<10))
	if err != nil {
		t.Fatal(err)
	}
	var arena connArena
	got1, err := decodeBatch(nil, buf, &arena)
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := readFrameInto(br, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &buf[0] != &buf2[0] {
		t.Error("second frame did not reuse the read buffer")
	}
	got2, err := decodeBatch(nil, buf2, &arena)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got1, first) {
		t.Fatal("first decode corrupted by buffer reuse")
	}
	if !reflect.DeepEqual(got2, second) {
		t.Fatal("second decode wrong")
	}
}
