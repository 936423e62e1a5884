package conformance

import (
	"strings"
	"testing"

	"msgorder/internal/netmesh"
	"msgorder/internal/protocol"
)

// TestCellErrRejectsEachFailure pins every clause of the four cell
// types' acceptance checks, the ones the matrix tests and mobench's
// subcommands share: a passing cell reads nil, and each single defect
// fails with an error naming the cell and the defect.
func TestCellErrRejectsEachFailure(t *testing.T) {
	frames := netmesh.Counters{FramesIn: 1, FramesOut: 1, Accepted: 6}
	lossy := frames
	lossy.FaultsInjected = 1
	once := protocol.Stats{Crashes: 1, Recoveries: 1}
	net := NetCell{Protocol: "fifo", Cell: "clean", Match: true, SimKey: "k", MeshKey: "k", Mesh: frames}
	mux := MuxCell{Protocol: "tagless", Cell: "clean", Procs: 3, Match: true, SimKey: "k", MuxKey: "k", Mesh: frames}
	churn := ChurnCell{Protocol: "fifo", Op: "evict", Env: "clean", Procs: 3, Match: true, Epoch: 1, Evicted: []int{2}, Msgs: 6}
	shard := ShardCell{Protocol: "fifo", Runtime: "mesh", Keys: 6, Match: true}

	cases := []struct {
		name string
		err  error
		want string // "" = the cell passes
	}{
		{"net ok", net.Err(), ""},
		{"net lossy ok", func(c NetCell) error { c.Cell, c.Mesh = "lossy", lossy; return c.Err() }(net), ""},
		{"net crash ok", func(c NetCell) error { c.Cell, c.Stats = "crash-restart", once; return c.Err() }(net), ""},
		{"net diverged", func(c NetCell) error { c.Match = false; return c.Err() }(net), "fifo/clean: views diverge"},
		{"net no frames", func(c NetCell) error { c.Mesh.FramesIn = 0; return c.Err() }(net), "no frames"},
		{"net lossy clean", func(c NetCell) error { c.Cell = "lossy"; return c.Err() }(net), "fifo/lossy: no faults injected"},
		{"net two crashes", func(c NetCell) error {
			c.Cell, c.Stats = "crash-restart", protocol.Stats{Crashes: 2, Recoveries: 2}
			return c.Err()
		}(net), "crashes/recoveries = 2/2"},

		{"mux ok", mux.Err(), ""},
		{"mux diverged", func(c MuxCell) error { c.MuxKey = "other"; c.Match = false; return c.Err() }(mux), "tagless/clean: multiplexed view diverges"},
		{"mux unknown drop", func(c MuxCell) error { c.UnknownDrops = 1; return c.Err() }(mux), "dropped as unknown"},
		{"mux no frames", func(c MuxCell) error { c.Mesh.FramesOut = 0; return c.Err() }(mux), "no frames"},
		{"mux unshared mesh", func(c MuxCell) error { c.Mesh.Accepted = 7; return c.Err() }(mux), "7 accepted connections"},
		{"mux tagless tags", func(c MuxCell) error { c.Stats.UserTagBytes = 4; return c.Err() }(mux), "tagless channel paid overhead"},
		{"mux tagless ctrl", func(c MuxCell) error { c.Stats.ControlMessages = 1; return c.Err() }(mux), "tagless channel paid overhead"},
		{"mux fifo tags", func(c MuxCell) error { c.Protocol, c.Stats.UserTagBytes = "fifo", 4; return c.Err() }(mux), ""},
		{"mux lossy clean", func(c MuxCell) error { c.Cell = "lossy"; return c.Err() }(mux), "no faults injected"},
		{"mux no recovery", func(c MuxCell) error {
			c.Cell, c.Stats = "crash-restart", protocol.Stats{Crashes: 1}
			return c.Err()
		}(mux), "crashes/recoveries = 1/0"},

		{"churn ok", churn.Err(), ""},
		{"churn diverged", func(c ChurnCell) error { c.Match = false; return c.Err() }(churn), "fifo/evict/clean: surviving views diverge"},
		{"churn spec", func(c ChurnCell) error { c.SpecViolation = true; return c.Err() }(churn), "violates the protocol's specification"},
		{"churn epoch", func(c ChurnCell) error { c.Epoch = 2; return c.Err() }(churn), "epoch 2, want 1"},
		{"churn join epoch", func(c ChurnCell) error { c.Op, c.Evicted = "join", nil; return c.Err() }(churn), "epoch 1, want 2"},
		{"churn evicted survivor", func(c ChurnCell) error { c.Evicted = []int{1}; return c.Err() }(churn), "evicted [1]"},
		{"churn evicted two", func(c ChurnCell) error { c.Evicted = []int{1, 2}; return c.Err() }(churn), "evicted [1 2]"},
		{"churn no msgs", func(c ChurnCell) error { c.Msgs = 0; return c.Err() }(churn), "covers no messages"},

		{"shard ok", shard.Err(), ""},
		{"shard diverged", func(c ShardCell) error { c.Match, c.MismatchKey = false, 0x2a; return c.Err() }(shard), "fifo/mesh: key 0x2a diverged"},
	}
	for _, tc := range cases {
		switch {
		case tc.want == "" && tc.err != nil:
			t.Errorf("%s: %v", tc.name, tc.err)
		case tc.want != "" && tc.err == nil:
			t.Errorf("%s: passed", tc.name)
		case tc.want != "" && !strings.Contains(tc.err.Error(), tc.want):
			t.Errorf("%s: error %q lacks %q", tc.name, tc.err, tc.want)
		}
	}
}
