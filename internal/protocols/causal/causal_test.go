package causal

import (
	"reflect"
	"testing"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/ptest"
	"msgorder/internal/vc"
)

// --- RST unit tests ---

func newRST(t *testing.T, id event.ProcID, n int) (*RST, *ptest.Env) {
	t.Helper()
	env := ptest.NewEnv(id, n)
	p, ok := RSTMaker().(*RST)
	if !ok {
		t.Fatal("RSTMaker did not return *RST")
	}
	p.Init(env)
	return p, env
}

func TestRSTDescribe(t *testing.T) {
	p, _ := newRST(t, 0, 3)
	if d := p.Describe(); d.Class != protocol.Tagged {
		t.Fatalf("descriptor = %+v", d)
	}
}

func TestRSTTagsMatrix(t *testing.T) {
	p, env := newRST(t, 0, 3)
	p.OnInvoke(event.Message{ID: 0, From: 0, To: 1})
	w, ok := env.LastSent()
	if !ok {
		t.Fatal("no wire sent")
	}
	m, err := vc.DecodeMatrix(w.Tag)
	if err != nil {
		t.Fatal(err)
	}
	if m.Get(0, 1) != 1 {
		t.Fatalf("tag matrix = %v, want M[0][1]=1", m)
	}
}

// TestRSTTriangle reproduces the classic causal violation scenario at the
// receiver: P2 receives the relayed message before the direct one and
// must buffer it.
func TestRSTTriangle(t *testing.T) {
	// P0 sends m0 to P2, then m1 to P1. P1 delivers m1 and relays m2 to
	// P2. P2 receives m2 BEFORE m0: must hold m2 until m0 is delivered.
	p0, env0 := newRST(t, 0, 3)
	p1, env1 := newRST(t, 1, 3)
	p2, env2 := newRST(t, 2, 3)

	p0.OnInvoke(event.Message{ID: 0, From: 0, To: 2})
	p0.OnInvoke(event.Message{ID: 1, From: 0, To: 1})
	wires := env0.TakeSent()
	if len(wires) != 2 {
		t.Fatal("P0 must send two wires")
	}
	w0, w1 := wires[0], wires[1]

	p1.OnReceive(w1)
	if !reflect.DeepEqual(env1.DeliveredSeq(), []int{1}) {
		t.Fatal("P1 must deliver m1 immediately")
	}
	p1.OnInvoke(event.Message{ID: 2, From: 1, To: 2})
	w2, ok := env1.LastSent()
	if !ok {
		t.Fatal("P1 must send m2")
	}

	// m2 arrives at P2 first.
	p2.OnReceive(w2)
	if len(env2.Delivered) != 0 {
		t.Fatal("P2 must buffer m2: m0 is causally prior")
	}
	p2.OnReceive(w0)
	if !reflect.DeepEqual(env2.DeliveredSeq(), []int{0, 2}) {
		t.Fatalf("delivered = %v, want [0 2]", env2.DeliveredSeq())
	}
}

func TestRSTFIFOWithinChannel(t *testing.T) {
	p0, env0 := newRST(t, 0, 2)
	p1, env1 := newRST(t, 1, 2)
	p0.OnInvoke(event.Message{ID: 0, From: 0, To: 1})
	p0.OnInvoke(event.Message{ID: 1, From: 0, To: 1})
	wires := env0.TakeSent()
	p1.OnReceive(wires[1]) // out of order
	if len(env1.Delivered) != 0 {
		t.Fatal("second message must wait for the first")
	}
	p1.OnReceive(wires[0])
	if !reflect.DeepEqual(env1.DeliveredSeq(), []int{0, 1}) {
		t.Fatalf("delivered = %v", env1.DeliveredSeq())
	}
}

func TestRSTMalformedTag(t *testing.T) {
	p, env := newRST(t, 1, 2)
	p.OnReceive(protocol.Wire{From: 0, Kind: protocol.UserWire, Msg: 3, Tag: []byte{0xff}})
	if len(env.Delivered) != 0 {
		t.Fatal("malformed tag must not deliver")
	}
	p.OnReceive(protocol.Wire{From: 0, Kind: protocol.ControlWire})
	if len(env.Delivered) != 0 {
		t.Fatal("control wires ignored")
	}
}

// --- SES unit tests ---

func newSES(t *testing.T, id event.ProcID, n int) (*SES, *ptest.Env) {
	t.Helper()
	env := ptest.NewEnv(id, n)
	p, ok := SESMaker().(*SES)
	if !ok {
		t.Fatal("SESMaker did not return *SES")
	}
	p.Init(env)
	return p, env
}

func TestSESDescribe(t *testing.T) {
	p, _ := newSES(t, 0, 3)
	if d := p.Describe(); d.Class != protocol.Tagged || d.Name != "causal-ses" {
		t.Fatalf("descriptor = %+v", d)
	}
}

func TestSESTriangle(t *testing.T) {
	p0, env0 := newSES(t, 0, 3)
	p1, env1 := newSES(t, 1, 3)
	p2, env2 := newSES(t, 2, 3)

	p0.OnInvoke(event.Message{ID: 0, From: 0, To: 2})
	p0.OnInvoke(event.Message{ID: 1, From: 0, To: 1})
	wires := env0.TakeSent()
	w0, w1 := wires[0], wires[1]

	p1.OnReceive(w1)
	if !reflect.DeepEqual(env1.DeliveredSeq(), []int{1}) {
		t.Fatal("P1 must deliver m1 immediately")
	}
	p1.OnInvoke(event.Message{ID: 2, From: 1, To: 2})
	w2, _ := env1.LastSent()

	p2.OnReceive(w2)
	if len(env2.Delivered) != 0 {
		t.Fatal("P2 must buffer the relayed message")
	}
	p2.OnReceive(w0)
	if !reflect.DeepEqual(env2.DeliveredSeq(), []int{0, 2}) {
		t.Fatalf("delivered = %v, want [0 2]", env2.DeliveredSeq())
	}
}

func TestSESFIFOWithinChannel(t *testing.T) {
	p0, env0 := newSES(t, 0, 2)
	p1, env1 := newSES(t, 1, 2)
	p0.OnInvoke(event.Message{ID: 0, From: 0, To: 1})
	p0.OnInvoke(event.Message{ID: 1, From: 0, To: 1})
	wires := env0.TakeSent()
	p1.OnReceive(wires[1])
	if len(env1.Delivered) != 0 {
		t.Fatal("second message must wait for the first")
	}
	p1.OnReceive(wires[0])
	if !reflect.DeepEqual(env1.DeliveredSeq(), []int{0, 1}) {
		t.Fatalf("delivered = %v", env1.DeliveredSeq())
	}
}

func TestSESTagSmallerThanRSTWhenSparse(t *testing.T) {
	// With little history, SES tags are smaller than RST's n×n matrix.
	n := 16
	rst, envR := newRST(t, 0, n)
	ses, envS := newSES(t, 0, n)
	rst.OnInvoke(event.Message{ID: 0, From: 0, To: 1})
	ses.OnInvoke(event.Message{ID: 0, From: 0, To: 1})
	wr, _ := envR.LastSent()
	ws, _ := envS.LastSent()
	if len(ws.Tag) >= len(wr.Tag) {
		t.Fatalf("SES tag (%d bytes) should be smaller than RST tag (%d bytes) at n=%d",
			len(ws.Tag), len(wr.Tag), n)
	}
}

func TestSESMalformedTag(t *testing.T) {
	p, env := newSES(t, 1, 2)
	p.OnReceive(protocol.Wire{From: 0, Kind: protocol.UserWire, Msg: 3, Tag: []byte{0xff}})
	if len(env.Delivered) != 0 {
		t.Fatal("malformed tag must not deliver")
	}
}

func TestSESCodecRoundTrip(t *testing.T) {
	tm := vc.Vector{1, 2, 3}
	vm := []vc.Vector{0: {4, 0, 0}, 2: {0, 1, 0}}
	tag := appendSES(nil, tm, vm)
	need, err := checkSES(tag, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(need, vm[2].Encode()) {
		t.Fatalf("need = %x, want %x", need, vm[2].Encode())
	}
	enc, cnt, entries, err := splitSES(tag, 3)
	if err != nil || !reflect.DeepEqual(enc, tm.Encode()) || cnt != 2 {
		t.Fatalf("splitSES = %x, %d, %v", enc, cnt, err)
	}
	for _, want := range []int{0, 2} {
		dst, vec, rest, err := nextEntry(entries, 3)
		if err != nil || dst != want || !reflect.DeepEqual(vec, vm[want].Encode()) {
			t.Fatalf("entry = %d %x %v, want %d %x", dst, vec, err, want, vm[want].Encode())
		}
		entries = rest
	}
	if len(entries) != 0 {
		t.Fatalf("%d bytes after the last entry", len(entries))
	}
}

func TestSESCodecErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{2, 1, 1},                            // vector then missing count
		{2, 1, 1, 2, 0},                      // count 2 but one truncated entry
		{2, 0, 0, 1, 1, 2, 0, 0, 9},          // trailing garbage
		{2, 0, 0, 2, 1, 2, 0, 0, 0, 2, 0, 0}, // destinations out of order
		{2, 0, 0, 1, 2, 2, 0, 0},             // destination out of range
		{2, 0, 0, 1, 1, 1, 0},                // entry of another dimension
		{1, 0, 0},                            // timestamp of another dimension
		{2, 0, 0, 3, 0, 2, 0, 0, 1, 2, 0, 0}, // more entries than processes
	}
	for _, b := range bad {
		if _, err := checkSES(b, 2, 0); err == nil {
			t.Errorf("checkSES(%v) should fail", b)
		}
	}
}

// sendOne sends m from p: as a one-copy broadcast if p broadcasts
// (BSS), else as an invoke.
func sendOne(p protocol.Process, m event.Message) {
	if b, ok := p.(protocol.Broadcaster); ok {
		b.OnBroadcast([]event.Message{m})
	} else {
		p.OnInvoke(m)
	}
}

// TestHostileTagsDropped: a tag that is not a clock of dimension
// NumProcs is dropped without a delivery or a panic, and the receiver
// still delivers the next honest message. RST's cases are a one-byte
// 0x00 (a 0×0 matrix, which once panicked indexing it) and a 2×2 matrix
// at n = 3 whose M[0][1] = 1 would read as "next from P0" if it were
// taken for a 3×3 one.
func TestHostileTagsDropped(t *testing.T) {
	two := vc.NewMatrix(2)
	two.Set(0, 1, 1)
	cases := []struct {
		name string
		mk   func() protocol.Process
		tag  []byte
	}{
		{"causal-rst/0x00", RSTMaker, []byte{0x00}},
		{"causal-rst/2x2-at-n3", RSTMaker, two.Encode()},
		{"causal-rst/4x4-at-n3", RSTMaker, vc.NewMatrix(4).Encode()},
		{"causal-ses/0x00", SESMaker, []byte{0x00}},
		{"causal-ses/2-vector-at-n3", SESMaker, appendSES(nil, vc.Vector{1, 0}, nil)},
		{"causal-ses/entry-of-2", SESMaker, appendSES(nil, vc.Vector{1, 0, 0}, []vc.Vector{1: {0, 0}})},
		{"causal-bss/cast-0x00", BSSMaker, []byte{bssCast, 0x00}},
		{"causal-bss/2-vector-at-n3", BSSMaker, append([]byte{bssCast}, vc.Vector{0, 0}.Encode()...)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sender := c.mk()
			senv := ptest.NewEnv(0, 3)
			sender.Init(senv)
			sendOne(sender, event.Message{ID: 0, From: 0, To: 1})
			w := senv.TakeSent()[0]

			p := c.mk()
			env := ptest.NewEnv(1, 3)
			p.Init(env)
			p.OnReceive(protocol.Wire{From: 0, To: 1, Kind: protocol.UserWire, Msg: 7, Tag: c.tag})
			if len(env.Delivered) != 0 {
				t.Fatalf("hostile tag %x delivered %v", c.tag, env.DeliveredSeq())
			}
			p.OnReceive(w)
			if got := env.DeliveredSeq(); !reflect.DeepEqual(got, []int{0}) {
				t.Fatalf("after the hostile tag, delivered %v, want [0]", got)
			}
		})
	}
}
