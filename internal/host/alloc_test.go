//go:build !race

package host_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/host"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/fifo"
	"msgorder/internal/shard"
	"msgorder/internal/transport"
)

// TestCheckpointAllocationBudget pins a warm checkpoint at zero
// allocations through every layer it crosses: a sharded fifo process
// of 1 000 ordering domains re-encodes the domain its input touched
// and assembles the blob, a transport.Reliable encodes its pending
// window as the runtime part, the host appends both into its blob
// buffer and the in-memory WAL copies that. SnapshotEvery = 1 makes
// every input checkpoint, so each measured Receive is one in-order
// delivery plus one full checkpoint. (Build-tagged !race: the
// detector's instrumentation allocates.)
func TestCheckpointAllocationBudget(t *testing.T) {
	const domains, window, runs = 1000, 64, 100
	tr := transport.NewReliable(transport.Config{RTO: time.Hour, MaxRTO: time.Hour, Tick: time.Hour},
		func(transport.Envelope) {})
	defer tr.Close()
	for i := 0; i < window; i++ {
		tr.Wrap(0, 1, protocol.Wire{From: 0, To: 1, Kind: protocol.UserWire, Msg: event.MsgID(i), Tag: []byte{byte(i)}})
	}
	wal := crash.NewWAL()
	h := host.New(host.Config{Self: 0, Procs: 2, WAL: wal, SnapshotEvery: 1, RuntimeState: tr.SnapshotState,
		Send: func(protocol.Wire) {}, Deliver: func(event.MsgID) {}, Fail: func(err error) { t.Error(err) }})
	h.Boot(shard.New(fifo.Maker)())

	// P1's fifo wires, built up front: one per domain to create it,
	// then one for each measured run, cycling over the domains.
	keys := make([]event.Key, domains)
	for i := range keys {
		keys[i] = event.KeyOf(fmt.Sprintf("budget-%d", i))
	}
	next := make([]uint64, domains)
	var wires []protocol.Wire
	for i := 0; i < domains+runs+1; i++ {
		k := i % domains
		wires = append(wires, protocol.Wire{From: 1, To: 0, Kind: protocol.UserWire, Msg: event.MsgID(i),
			Key: keys[k], Tag: binary.AppendUvarint(nil, next[k])})
		next[k]++
	}
	for _, w := range wires[:domains] {
		h.Receive(w, 0)
	}
	wires = wires[domains:]
	allocs := testing.AllocsPerRun(runs, func() {
		h.Receive(wires[0], 0)
		wires = wires[1:]
	})
	if allocs != 0 {
		t.Fatalf("warm checkpoint of %d domains + a %d-envelope window: %.0f allocations, want 0", domains, window, allocs)
	}
	blob, entries := wal.Replay()
	if len(entries) != 0 || !bytes.HasSuffix(blob, tr.SnapshotState()) || len(blob) < 10*domains {
		t.Fatalf("last checkpoint: %d bytes with %d entries after it, want a full blob ending in the runtime part", len(blob), len(entries))
	}
}
