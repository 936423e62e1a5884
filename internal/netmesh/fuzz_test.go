package netmesh

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"msgorder/internal/snapio"
	"msgorder/internal/transport"
)

// FuzzDecodeBatch drives the batch frame decoder with arbitrary bytes.
// It must never panic; what it carves must be capped and must not alias
// the frame; a VC count the frame cannot hold must be refused before
// anything is sized by it, so the VC arena never grows past the larger
// of a chunk and the frame itself; and what it accepts must re-encode
// to a frame that decodes the same.
func FuzzDecodeBatch(f *testing.F) {
	ack := transport.Envelope{Src: 1, Dst: 3, Kind: transport.Ack, Seq: 300, Cum: 299, Chan: 77}
	beat := transport.Envelope{Src: 1, Dst: 3, Kind: transport.Beat}
	data := batchEnvs(3, 3)
	for _, envs := range [][]transport.Envelope{
		batchEnvs(3, 1), batchEnvs(3, 7), {ack}, {beat},
		{ack, data[0], beat, data[1], data[2], ack},
	} {
		f.Add(slices.Clone(encodeBatch(new(snapio.Writer), envs)))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		var arena connArena
		got, err := decodeBatch(nil, frame, &arena)
		if cap(arena.vc) > max(vcChunk, len(frame)) {
			t.Fatalf("a %d-byte frame grew the VC arena to %d counters", len(frame), cap(arena.vc))
		}
		if err != nil {
			return
		}
		want := make([]transport.Envelope, len(got))
		for i, e := range got {
			if cap(e.Wire.Tag) != len(e.Wire.Tag) || cap(e.Wire.VC) != len(e.Wire.VC) {
				t.Fatalf("envelope %d: tag or stamp not capped", i)
			}
			want[i] = e
			want[i].Wire.Tag = bytes.Clone(e.Wire.Tag)
			want[i].Wire.VC = slices.Clone(e.Wire.VC)
		}
		clear(frame) // the decoded envelopes must not alias it
		if !reflect.DeepEqual(got, want) {
			t.Fatal("decoded envelopes alias the frame")
		}
		again, err := decodeBatch(nil, encodeBatch(new(snapio.Writer), got), new(connArena))
		if err != nil {
			t.Fatalf("accepted batch fails to re-decode: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatal("round trip changed the batch")
		}
	})
}
