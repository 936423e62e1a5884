// Benchmarks regenerating the reproduction's tables and ablations; see
// DESIGN.md §4 for the experiment index. One benchmark per table/figure
// family:
//
//	T1  BenchmarkClassifyCatalog     classification of every paper spec
//	T2  BenchmarkLemma3Equivalence   exhaustive bounded-universe checking
//	T3  BenchmarkProtocolSafety      protocol runs + specification checking
//	E1  BenchmarkOverhead*           per-protocol tag/control cost
//	E2  BenchmarkClassifyLarge/CycleEnum  classifier scaling ablation
//	E8  BenchmarkExplore             sequential vs deduplicating explorer
//	—   BenchmarkCheckMatcher        pruned vs naive matcher ablation
//	—   BenchmarkSimBackends         dsim vs live goroutine network
//	E18 BenchmarkShardSnapshot       sharded checkpoint encode by dirty share
//	E18 BenchmarkWALCheckpointCycle  64 journal appends + one checkpoint
//	E19 BenchmarkReliableAck         one Wrap + one cumulative ack by table depth
package msgorder

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"msgorder/internal/catalog"
	"msgorder/internal/check"
	"msgorder/internal/classify"
	"msgorder/internal/conformance"
	"msgorder/internal/crash"
	"msgorder/internal/dsim"
	"msgorder/internal/event"
	"msgorder/internal/inhib"
	"msgorder/internal/pgraph"
	"msgorder/internal/predicate"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/causal"
	"msgorder/internal/protocols/fifo"
	syncproto "msgorder/internal/protocols/sync"
	"msgorder/internal/protocols/tagless"
	"msgorder/internal/shard"
	"msgorder/internal/sim"
	"msgorder/internal/synth"
	"msgorder/internal/transport"
	"msgorder/internal/universe"
	"msgorder/internal/userview"
)

// --- T1: the classification table ---

func BenchmarkClassifyCatalog(b *testing.B) {
	entries := catalog.Entries()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range entries {
			res, err := classify.Classify(e.Pred)
			if err != nil {
				b.Fatal(err)
			}
			if res.Class != e.PaperClass {
				b.Fatalf("%s: class %v != paper %v", e.Name, res.Class, e.PaperClass)
			}
		}
	}
}

// --- T2: Lemma 3 bounded-universe checking ---

func BenchmarkLemma3Equivalence(b *testing.B) {
	b1 := predicate.MustParse("x, y : x.s -> y.r && y.r -> x.r")
	b2 := predicate.MustParse("x, y : x.s -> y.s && y.r -> x.r")
	for i := 0; i < b.N; i++ {
		disagreements := 0
		universe.RunsNoSelf(3, 2, func(r *userview.Run) bool {
			if check.Satisfies(r, b1) != check.Satisfies(r, b2) {
				disagreements++
			}
			return true
		})
		if disagreements != 0 {
			b.Fatalf("%d disagreements", disagreements)
		}
	}
}

func BenchmarkUniverseEnumeration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := universe.Runs(3, 2, func(*userview.Run) bool { return true })
		if n == 0 {
			b.Fatal("empty universe")
		}
	}
}

// --- T3: protocol safety sweeps ---

func benchProtocol(b *testing.B, maker protocol.Maker, spec string) {
	e, ok := catalog.ByName(spec)
	if !ok {
		b.Fatalf("unknown spec %s", spec)
	}
	cfg := conformance.Config{
		Maker:       maker,
		Procs:       3,
		InitialMsgs: 12,
		ChainBudget: 8,
		ChainProb:   0.6,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := conformance.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, bad := check.FindViolation(res.View, e.Pred); bad {
			b.Fatalf("seed %d violated %s", cfg.Seed, spec)
		}
	}
}

func BenchmarkProtocolSafety(b *testing.B) {
	b.Run("fifo", func(b *testing.B) { benchProtocol(b, fifo.Maker, "fifo") })
	b.Run("causal-rst", func(b *testing.B) { benchProtocol(b, causal.RSTMaker, "causal-b2") })
	b.Run("causal-ses", func(b *testing.B) { benchProtocol(b, causal.SESMaker, "causal-b2") })
	b.Run("sync", func(b *testing.B) { benchProtocol(b, syncproto.Maker, "sync-2") })
}

// --- E1: overhead (also exercised as throughput) ---

func benchOverhead(b *testing.B, maker protocol.Maker, procs int) {
	cfg := conformance.Config{
		Maker:       maker,
		Procs:       procs,
		InitialMsgs: 30,
		ChainBudget: 10,
		ChainProb:   0.5,
	}
	var tagBytes, ctrl float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := conformance.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tagBytes += res.Stats.TagBytesPerUser()
		ctrl += res.Stats.ControlPerUser()
	}
	b.ReportMetric(tagBytes/float64(b.N), "tagB/msg")
	b.ReportMetric(ctrl/float64(b.N), "ctrl/msg")
}

func BenchmarkOverhead(b *testing.B) {
	for _, procs := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("tagless/n=%d", procs), func(b *testing.B) { benchOverhead(b, tagless.Maker, procs) })
		b.Run(fmt.Sprintf("fifo/n=%d", procs), func(b *testing.B) { benchOverhead(b, fifo.Maker, procs) })
		b.Run(fmt.Sprintf("causal-rst/n=%d", procs), func(b *testing.B) { benchOverhead(b, causal.RSTMaker, procs) })
		b.Run(fmt.Sprintf("causal-ses/n=%d", procs), func(b *testing.B) { benchOverhead(b, causal.SESMaker, procs) })
		b.Run(fmt.Sprintf("sync/n=%d", procs), func(b *testing.B) { benchOverhead(b, syncproto.Maker, procs) })
	}
}

// BenchmarkCausalVariants is the RST-vs-SES ablation in isolation.
func BenchmarkCausalVariants(b *testing.B) {
	b.Run("rst/n=8", func(b *testing.B) { benchOverhead(b, causal.RSTMaker, 8) })
	b.Run("ses/n=8", func(b *testing.B) { benchOverhead(b, causal.SESMaker, 8) })
}

// --- E2: classifier scaling ---

func BenchmarkClassifyLarge(b *testing.B) {
	for _, k := range []int{8, 32, 64} {
		p := catalog.Crown(k)
		b.Run(fmt.Sprintf("crown-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := classify.Classify(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// denseBeta builds the all-β complete graph K_n (i.s -> j.r for i≠j).
func denseBeta(n int) *predicate.Predicate {
	vars := make([]string, n)
	for i := range vars {
		vars[i] = fmt.Sprintf("x%d", i+1)
	}
	bld := predicate.NewBuilder(vars...)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				bld.Atom(vars[i], predicate.S, vars[j], predicate.R)
			}
		}
	}
	return bld.MustBuild()
}

func BenchmarkCycleEnum(b *testing.B) {
	for _, n := range []int{5, 7} {
		g := pgraph.New(denseBeta(n))
		b.Run(fmt.Sprintf("fast/K%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, ok := g.MinOrder(); !ok {
					b.Fatal("no cycle")
				}
			}
		})
		b.Run(fmt.Sprintf("exhaustive/K%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, ok := g.MinOrderExhaustive(); !ok {
					b.Fatal("no cycle")
				}
			}
		})
	}
}

// --- matcher ablation ---

func BenchmarkCheckMatcher(b *testing.B) {
	// A fixed mid-size run and the 3-crown predicate: the pruned matcher
	// cuts the tuple space, the naive one scans it all.
	res, err := conformance.Run(conformance.Config{
		Maker:       tagless.Maker,
		Procs:       4,
		InitialMsgs: 24,
		Seed:        5,
	})
	if err != nil {
		b.Fatal(err)
	}
	crown := catalog.Crown(3)
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			check.FindViolation(res.View, crown)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			check.FindViolationNaive(res.View, crown)
		}
	})
}

// --- simulator backends ---

func BenchmarkSimBackends(b *testing.B) {
	const msgs = 40
	b.Run("dsim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := conformance.Run(conformance.Config{
				Maker:       causal.RSTMaker,
				Procs:       4,
				InitialMsgs: msgs,
				Seed:        int64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.Deliveries != msgs {
				b.Fatal("lost messages")
			}
		}
	})
	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nw := sim.New(4, causal.RSTMaker, sim.WithSeed(int64(i+1)))
			for m := 0; m < msgs; m++ {
				nw.Invoke(sim.Request{From: ProcID(m % 4), To: ProcID((m + 1) % 4)})
			}
			res, err := nw.Stop()
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.Deliveries != msgs {
				b.Fatal("lost messages")
			}
		}
	})
}

// --- witness constructions ---

func BenchmarkWitnessConstruction(b *testing.B) {
	crown := catalog.Crown(3)
	for i := 0; i < b.N; i++ {
		if _, err := universe.COWitness(crown); err != nil {
			b.Fatal(err)
		}
	}
}

// --- denotational model exploration (E5) ---

func BenchmarkInhibExplore(b *testing.B) {
	msgs := []Message{
		{ID: 0, From: 0, To: 1},
		{ID: 1, From: 0, To: 1},
		{ID: 2, From: 1, To: 2},
	}
	protos := map[string]inhib.Protocol{
		"all-enabled":     inhib.AllEnabled{},
		"causal-delivery": inhib.CausalDelivery{},
		"sync-gate":       inhib.SyncGate{},
	}
	for name, p := range protos {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := inhib.Explore(p, msgs, 3)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Complete) == 0 {
					b.Fatal("no complete runs")
				}
			}
		})
	}
}

// --- protocol synthesis (E6) ---

func BenchmarkSynthGenerate(b *testing.B) {
	fifoEntry, _ := catalog.ByName("fifo")
	for i := 0; i < b.N; i++ {
		if _, _, err := synth.Generate(fifoEntry.Pred); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthChannelSeqRun(b *testing.B) {
	fifoEntry, _ := catalog.ByName("fifo")
	maker, _, err := synth.Generate(fifoEntry.Pred)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("generated", func(b *testing.B) { benchProtocol(b, maker, "fifo") })
	b.Run("handwritten", func(b *testing.B) { benchProtocol(b, fifo.Maker, "fifo") })
}

// --- E8: exhaustive schedule exploration ---

// benchExplore measures one explorer configuration over a fixed workload.
// The sequential/deduped pairs quantify the state-dedup + commutativity
// reductions: same violation coverage, a fraction of the replays.
func benchExplore(b *testing.B, cfg dsim.ExploreConfig) {
	b.ReportAllocs()
	var last dsim.ExploreStats
	for i := 0; i < b.N; i++ {
		st, err := dsim.ExploreWithStats(cfg, func(*dsim.Result) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
		if st.Schedules == 0 {
			b.Fatal("no schedules explored")
		}
		last = st
	}
	b.ReportMetric(float64(last.Replays), "replays/op")
	b.ReportMetric(float64(last.Schedules), "schedules/op")
}

func BenchmarkExplore(b *testing.B) {
	workloads := []struct {
		name string
		cfg  dsim.ExploreConfig
	}{
		{"causal-rst-4msg", dsim.ExploreConfig{
			Procs: 3, Maker: causal.RSTMaker,
			Requests: []dsim.Request{
				{From: 0, To: 1}, {From: 0, To: 2},
				{From: 1, To: 2}, {From: 2, To: 1},
			},
		}},
		{"sync-2msg", dsim.ExploreConfig{
			Procs: 3, Maker: syncproto.Maker,
			Requests: []dsim.Request{{From: 1, To: 2}, {From: 2, To: 1}},
		}},
		{"sync-ra-2msg", dsim.ExploreConfig{
			Procs: 3, Maker: syncproto.RAMaker,
			Requests: []dsim.Request{{From: 1, To: 2}, {From: 2, To: 1}},
		}},
	}
	for _, w := range workloads {
		sequential := w.cfg
		sequential.Workers = 1
		b.Run(w.name+"/sequential", func(b *testing.B) { benchExplore(b, sequential) })
		b.Run(w.name+"/deduped", func(b *testing.B) { benchExplore(b, w.cfg) })
		// The instrumented variant quantifies tracing overhead against
		// /deduped — the nil-tracer fast path must keep the uninstrumented
		// runs above within noise of their pre-observability cost.
		b.Run(w.name+"/traced", func(b *testing.B) { benchExploreTraced(b, w.cfg) })
	}
}

func benchExploreTraced(b *testing.B, cfg dsim.ExploreConfig) {
	b.ReportAllocs()
	var records int
	for i := 0; i < b.N; i++ {
		col := NewTraceCollector()
		cfg.Tracer = col
		cfg.Metrics = NewMetricsRegistry()
		st, err := dsim.ExploreWithStats(cfg, func(*dsim.Result) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
		if st.Schedules == 0 {
			b.Fatal("no schedules explored")
		}
		if col.Len() == 0 {
			b.Fatal("traced exploration emitted no records")
		}
		records = col.Len()
	}
	b.ReportMetric(float64(records), "records/op")
}

// --- E18: the checkpoint path, layer by layer ---

// discardEnv is a protocol environment that drops every output.
type discardEnv struct{}

func (discardEnv) Self() event.ProcID  { return 0 }
func (discardEnv) NumProcs() int       { return 2 }
func (discardEnv) Deliver(event.MsgID) {}
func (discardEnv) Send(protocol.Wire)  {}

// BenchmarkShardSnapshot times one Snapshot of a sharded fifo process
// holding 1k or 100k ordering domains, of which none, 32 or all were
// touched by a handler since the previous Snapshot (the touching itself
// is untimed). dirty=32 is the checkpoint a node takes every 64 journal
// entries; dirty=all is the pre-cache cost at every checkpoint.
func BenchmarkShardSnapshot(b *testing.B) {
	for _, keys := range []int{1000, 100000} {
		p := shard.New(fifo.Maker)()
		p.Init(discardEnv{})
		touch := func(n int) {
			for k := 0; k < n; k++ {
				p.OnInvoke(event.Message{From: 0, To: 1, Key: event.Key(k)})
			}
		}
		touch(keys)
		snap := p.(protocol.Snapshotter)
		snap.Snapshot()
		for _, dirty := range []int{0, 32, keys} {
			name := fmt.Sprintf("keys=%dk/dirty=%d", keys/1000, dirty)
			if dirty == keys {
				name = fmt.Sprintf("keys=%dk/dirty=all", keys/1000)
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					touch(dirty)
					b.StartTimer()
					if len(snap.Snapshot()) == 0 {
						b.Fatal("empty snapshot")
					}
				}
			})
		}
	}
}

// BenchmarkWALCheckpointCycle times what a node's journal does between
// two checkpoints at SnapshotEvery = 64: 64 appends and one checkpoint
// of a 22 KB blob (keyed-1k's size), on the in-memory journal and on
// the file journal with group commit.
func BenchmarkWALCheckpointCycle(b *testing.B) {
	blob := make([]byte, 22<<10)
	e := crash.Entry{Kind: crash.EntryReceive, Seq: 9,
		Wire: protocol.Wire{From: 1, To: 0, Kind: protocol.UserWire, Msg: 7, Key: 1 << 40, Tag: []byte{3}}}
	run := func(b *testing.B, w *crash.WAL) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 64; j++ {
				if err := w.Append(e); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Checkpoint(blob); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("memory", func(b *testing.B) { run(b, crash.NewWAL()) })
	b.Run("file", func(b *testing.B) {
		w, err := crash.OpenFileWAL(filepath.Join(b.TempDir(), "bench.wal"))
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		w.EnableGroupCommit(crash.GroupCommit{})
		run(b, w)
	})
}

// BenchmarkReliableAck times a sender's steady state with a standing
// window of unacknowledged envelopes: each iteration wraps one wire and
// processes the cumulative ack that retires the oldest one, so the
// table holds `pending` entries throughout. An ack that costs what it
// retires reads the same at both depths.
func BenchmarkReliableAck(b *testing.B) {
	for _, pending := range []int{128, 4096} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			r := transport.NewReliable(transport.Config{RTO: time.Hour, MaxRTO: time.Hour, Tick: time.Hour},
				func(transport.Envelope) {})
			defer r.Close()
			w := protocol.Wire{From: 0, To: 1, Kind: protocol.UserWire}
			for i := 0; i < pending; i++ {
				r.Wrap(0, 1, w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Wrap(0, 1, w)
				cum := uint64(i + 1)
				r.Ack(transport.Envelope{Src: 1, Dst: 0, Kind: transport.Ack, Seq: cum, Cum: cum})
			}
			b.StopTimer()
			if got := r.Pending(); got != pending {
				b.Fatalf("pending = %d, want the standing %d", got, pending)
			}
		})
	}
}
