//go:build !race

package shard

import (
	"fmt"
	"testing"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/fifo"
)

// TestSnapshotAllocsScaleWithDirtyDomains pins the cost model: with d
// of 1000 domains dirty, Snapshot allocates what d inner encodes do —
// nothing per clean domain, and nothing for the blob, which is
// assembled in the buffer the process keeps. (Build-tagged !race: the
// detector's instrumentation allocates.)
func TestSnapshotAllocsScaleWithDirtyDomains(t *testing.T) {
	const domains = 1000
	p := New(fifo.Maker)().(*snapProcess)
	p.Init(&stubEnv{self: 0, n: 2})
	for i := 0; i < domains; i++ {
		p.OnInvoke(event.Message{ID: event.MsgID(i), From: 0, To: 1, Key: event.KeyOf(fmt.Sprintf("alloc-%d", i))})
	}
	want := len(p.Snapshot())
	inner := p.order[0].inst.(protocol.Snapshotter)
	perDomain := testing.AllocsPerRun(100, func() { inner.Snapshot() })
	for _, d := range []int{0, 1, 32, domains} {
		allocs := testing.AllocsPerRun(20, func() {
			for _, dom := range p.order[:d] {
				p.touch(dom)
			}
			if got := len(p.Snapshot()); got != want {
				t.Fatalf("snapshot is %d bytes, want %d", got, want)
			}
		})
		if limit := float64(d) * perDomain; allocs > limit {
			t.Fatalf("%d dirty of %d domains: %.0f allocations, want at most %.0f (%.0f per inner encode)", d, domains, allocs, limit, perDomain)
		}
		t.Logf("%d dirty: %.0f allocations", d, allocs)
	}
}
