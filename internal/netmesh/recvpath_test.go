package netmesh

import (
	"bufio"
	"net"
	"slices"
	"testing"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/tagless"
	"msgorder/internal/transport"
)

// dataFrom builds a data envelope from src to P1 carrying user message id.
func dataFrom(src event.ProcID, seq uint64, id event.MsgID) transport.Envelope {
	return transport.Envelope{Src: src, Dst: 1, Kind: transport.Data, Seq: seq,
		Wire: protocol.Wire{From: src, To: 1, Kind: protocol.UserWire, Msg: id}}
}

// TestConnectionCarriesOnlyItsPeersEnvelopes: a connection speaks for
// the process its hello named. A raw client handshakes as P2, then
// sends one frame with envelopes claiming P0 (a real process, not this
// connection's) and P7 (no process at all) ahead of one of P2's own.
// The node delivers only P2's, and opens no transport state for the
// forged senders.
func TestConnectionCarriesOnlyItsPeersEnvelopes(t *testing.T) {
	nodes := startMeshNodes(t, 3, tagless.Maker, nil)
	conn, err := net.Dial("tcp", nodes[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, encodeHello(hello{Proc: 2, N: 3, Fingerprint: Fingerprint("test", "spec", 3)})); err != nil {
		t.Fatal(err)
	}
	if reply, err := readFrame(bufio.NewReader(conn)); err != nil || len(reply) == 0 || reply[0] != frameWelcome {
		t.Fatalf("handshake as P2: %v, %v", reply, err)
	}
	forged := []transport.Envelope{dataFrom(0, 1, 100), dataFrom(7, 1, 101)}
	enc := getEncoder()
	err = writeFrame(conn, encodeBatch(enc, append(slices.Clone(forged), dataFrom(2, 1, 102))))
	putEncoder(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].WaitDeliveries(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := nodes[1].Deliveries(); !slices.Equal(got, []event.MsgID{102}) {
		t.Fatalf("deliveries = %v, want only P2's m102", got)
	}
	for _, e := range forged {
		if cum := nodes[1].tr.CumFor(e); cum != 0 {
			t.Errorf("forged P%d envelope opened a channel at P1 (cum %d)", e.Src, cum)
		}
	}
	if c := nodes[1].MeshCounters(); c.EnvelopesIn != 1 {
		t.Errorf("EnvelopesIn = %d, want 1 (the forged envelopes dropped at the connection)", c.EnvelopesIn)
	}
}

// TestReceiversCopyTheirBatch: HandleEnvelopes and the rcv callback a
// node gives its mesh both copy the envelopes they are handed, so a
// caller that overwrites its slice as soon as the call returns changes
// nothing the node handles.
func TestReceiversCopyTheirBatch(t *testing.T) {
	nodes := startMeshNodes(t, 2, tagless.Maker, nil)
	clobber := func(envs []transport.Envelope) {
		for i := range envs {
			envs[i] = dataFrom(0, uint64(90+i), 999)
		}
	}
	first := []transport.Envelope{dataFrom(0, 1, 10), dataFrom(0, 2, 11), dataFrom(0, 3, 12)}
	nodes[1].HandleEnvelopes(first)
	clobber(first)
	second := []transport.Envelope{dataFrom(0, 4, 13), dataFrom(0, 5, 14)}
	nodes[1].mesh.rcv(second)
	clobber(second)
	if err := nodes[1].WaitDeliveries(5, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got, want := nodes[1].Deliveries(), []event.MsgID{10, 11, 12, 13, 14}; !slices.Equal(got, want) {
		t.Fatalf("deliveries = %v, want %v", got, want)
	}
}
