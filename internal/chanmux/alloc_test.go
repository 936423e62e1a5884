//go:build !race

package chanmux

import (
	"testing"

	"msgorder/internal/transport"
)

// TestDemuxAllocationBudget pins the demultiplexer of a mixed-channel
// batch at zero allocations once warm: each channel's share is
// gathered into pooled scratch, not a per-batch split map. The
// channels are not open, so the shares are counted as drops and no
// node's inbox (gated in netmesh) takes part. (Build-tagged !race: the
// detector's instrumentation allocates.)
func TestDemuxAllocationBudget(t *testing.T) {
	m := &Mux{byID: map[uint32]*Channel{}}
	envs := make([]transport.Envelope, 64)
	for i := range envs {
		envs[i] = transport.Envelope{Src: 0, Dst: 1, Kind: transport.Data, Chan: uint32(1 + i%3), Seq: uint64(i/3 + 1)}
	}
	m.receive(envs)
	if avg := testing.AllocsPerRun(200, func() { m.receive(envs) }); avg != 0 {
		t.Errorf("demultiplexing a 3-channel batch allocates %.1f, want 0", avg)
	}
	// The warm-up call, AllocsPerRun's own, then its 200 runs.
	if got, want := m.UnknownDrops(), uint64(202*len(envs)); got != want {
		t.Errorf("unknown drops = %d, want %d", got, want)
	}
}
