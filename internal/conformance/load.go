// Sustained open-loop load: unlike the lockstep conformance matrices,
// the load runner invokes the whole seeded workload up front and lets
// the stack drain it at full speed — the regime where the batched
// framing, pooled buffers, pipelined acks and group-commit WAL of the
// high-throughput path actually engage. Every run still validates the
// user view (exactly-once, per-process event sanity) via userview, so
// a throughput number from a broken run cannot exist.
package conformance

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/netmesh"
	"msgorder/internal/obs"
	"msgorder/internal/sim"
	"msgorder/internal/transport"
	"msgorder/internal/userview"
)

// latencyMetric is the obs histogram name load runs record
// invoke→deliver latency under.
const latencyMetric = "load.latency.us"

// LoadConfig shapes one sustained open-loop load run.
type LoadConfig struct {
	// Procs is the mesh size (default 3).
	Procs int
	// Msgs is the workload length (default 4000).
	Msgs int
	// Seed drives the workload shape (default 1).
	Seed int64
	// Timeout bounds the whole drain after the last invoke
	// (default 60s).
	Timeout time.Duration
	// WALDir, when non-empty, makes the mesh nodes' journals
	// file-backed (the sim runtime ignores it).
	WALDir string
	// GroupCommit enables group-commit batching on file-backed
	// journals (no effect without WALDir).
	GroupCommit bool
	// Traced gives every mesh node its own obs collector and metrics
	// registry — the full tracing pipeline the fleet observability
	// plane scrapes — so traced and untraced runs of the same workload
	// measure the instrumentation overhead (sim runtime ignores it).
	Traced bool
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Procs == 0 {
		c.Procs = 3
	}
	if c.Msgs == 0 {
		c.Msgs = 4000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	return c
}

// LoadResult is one (runtime, protocol) row of a load run: sustained
// throughput plus the invoke→deliver latency distribution, with the
// batching-efficiency counters that explain the number.
type LoadResult struct {
	// Runtime is "sim" or "mesh".
	Runtime string `json:"runtime"`
	// Traced records whether the run carried per-node obs tracing.
	Traced bool `json:"traced,omitempty"`
	// Protocol is the catalog protocol driven.
	Protocol string `json:"protocol"`
	// Msgs is the workload length.
	Msgs int `json:"msgs"`
	// ElapsedMs is first-invoke→last-delivery wall time.
	ElapsedMs float64 `json:"elapsed_ms"`
	// MsgsPerSec is the sustained end-to-end throughput.
	MsgsPerSec float64 `json:"msgs_per_sec"`
	// P50us / P99us / MaxUs summarize invoke→deliver latency in
	// microseconds (power-of-two histogram quantiles, so estimates are
	// bucket-granular).
	P50us int64 `json:"p50_us"`
	P99us int64 `json:"p99_us"`
	MaxUs int64 `json:"max_us"`
	// FramesOut and EnvelopesOut are summed mesh socket counters
	// (mesh runtime only); EnvelopesOut/FramesOut is BatchFactor, the
	// achieved coalescing.
	FramesOut    int     `json:"frames_out,omitempty"`
	EnvelopesOut int     `json:"envelopes_out,omitempty"`
	BatchFactor  float64 `json:"batch_factor,omitempty"`
	// Retransmits and CumAcked are summed reliable-sublayer counters:
	// CumAcked is how many retransmissions pipelined acks prevented.
	Retransmits int `json:"retransmits,omitempty"`
	CumAcked    int `json:"cum_acked,omitempty"`
	// WALAppends and WALFlushes are summed journal counters (mesh
	// runtime with WALDir); Appends ≫ Flushes is group commit working.
	WALAppends int `json:"wal_appends,omitempty"`
	WALFlushes int `json:"wal_flushes,omitempty"`
	// PoolGets / PoolMisses snapshot the codec buffer pool across the
	// run (process-wide deltas).
	PoolGets   uint64 `json:"pool_gets,omitempty"`
	PoolMisses uint64 `json:"pool_misses,omitempty"`
}

// LoadWorkload derives the open-loop message list — the same seeded
// stream the net matrix uses, just longer.
func LoadWorkload(cfg LoadConfig, colors []event.Color) []event.Message {
	cfg = cfg.withDefaults()
	return netWorkload(NetMatrixConfig{Procs: cfg.Procs, Msgs: cfg.Msgs, Seed: cfg.Seed}.withDefaults(), colors)
}

// latencyProbe times invoke→deliver per message id and folds the
// samples into a power-of-two histogram.
type latencyProbe struct {
	start []int64 // UnixNano at invoke, indexed by MsgID
	reg   *obs.Registry
}

func newLatencyProbe(n int) *latencyProbe {
	return &latencyProbe{start: make([]int64, n), reg: obs.NewRegistry()}
}

func (p *latencyProbe) invoked(id event.MsgID) {
	atomic.StoreInt64(&p.start[id], time.Now().UnixNano())
}

func (p *latencyProbe) delivered(id event.MsgID) {
	if int(id) >= len(p.start) {
		return
	}
	t := atomic.LoadInt64(&p.start[int(id)])
	if t == 0 {
		return
	}
	p.reg.Observe(latencyMetric, (time.Now().UnixNano()-t)/1000)
}

func (p *latencyProbe) fill(r *LoadResult) {
	h := p.reg.Snapshot().Histograms[latencyMetric]
	r.P50us = h.Quantile(0.50)
	r.P99us = h.Quantile(0.99)
	r.MaxUs = h.Max
	if h.Count == 0 {
		r.MaxUs = 0
	}
}

// RunLoadSim drives the open-loop workload through the in-memory live
// harness and reports sustained throughput and latency quantiles.
func RunLoadSim(p NetProtocol, cfg LoadConfig) (LoadResult, error) {
	cfg = cfg.withDefaults()
	msgs := LoadWorkload(cfg, p.Colors)
	probe := newLatencyProbe(len(msgs))
	nw := sim.New(cfg.Procs, p.Maker, sim.WithSeed(cfg.Seed), sim.WithTimeout(cfg.Timeout))
	nw.OnDeliver(func(_ event.ProcID, id event.MsgID) []sim.Request {
		probe.delivered(id)
		return nil
	})
	start := time.Now()
	for _, m := range msgs {
		probe.invoked(m.ID)
		if err := nw.Invoke(sim.Request{From: m.From, To: m.To, Color: m.Color}); err != nil {
			return LoadResult{}, fmt.Errorf("sim load invoke m%d: %w", m.ID, err)
		}
	}
	if err := nw.Quiesce(); err != nil {
		return LoadResult{}, fmt.Errorf("sim load quiesce: %w", err)
	}
	elapsed := time.Since(start)
	res, err := nw.Stop()
	if err != nil {
		return LoadResult{}, err
	}
	if len(res.Undelivered) > 0 {
		return LoadResult{}, fmt.Errorf("sim load left %d undelivered", len(res.Undelivered))
	}
	out := LoadResult{Runtime: "sim", Protocol: p.Name, Msgs: len(msgs)}
	out.ElapsedMs = float64(elapsed.Microseconds()) / 1000
	out.MsgsPerSec = float64(len(msgs)) / elapsed.Seconds()
	probe.fill(&out)
	return out, nil
}

// RunLoadMesh drives the open-loop workload through a loopback TCP
// mesh — the batched, pooled, pipelined-ack hot path — and reports
// sustained throughput, latency quantiles and the batching counters.
// The final user view is validated (exactly-once per message) before
// any number is returned.
func RunLoadMesh(p NetProtocol, cfg LoadConfig) (LoadResult, error) {
	cfg = cfg.withDefaults()
	msgs := LoadWorkload(cfg, p.Colors)
	probe := newLatencyProbe(len(msgs))
	pool0 := netmesh.CodecPoolStats()
	addrs, err := meshPorts(cfg.Procs)
	if err != nil {
		return LoadResult{}, err
	}
	fp := netmesh.Fingerprint(p.Name, "load", cfg.Procs)
	nodes := make([]*netmesh.Node, cfg.Procs)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()
	for i := range nodes {
		ncfg := netmesh.NodeConfig{
			Self:  event.ProcID(i),
			Procs: cfg.Procs,
			Maker: p.Maker,
			Mesh: netmesh.MeshConfig{
				Addrs: addrs, Fingerprint: fp, Seed: cfg.Seed + int64(i),
			},
			// The load cell is a clean loopback network: a generous RTO keeps
			// the retransmit loop from misreading open-loop queueing delay as
			// loss and re-sending the whole burst (delivery still dedups, but
			// spurious retransmits would pollute the throughput numbers).
			Transport: transport.Config{RTO: 250 * time.Millisecond, MaxRTO: 2 * time.Second},
			OnDeliver: probe.delivered,
		}
		if cfg.WALDir != "" {
			ncfg.WALPath = filepath.Join(cfg.WALDir, fmt.Sprintf("load-%s-p%d.wal", p.Name, i))
			if cfg.GroupCommit {
				ncfg.WALGroupCommit = &crash.GroupCommit{}
			}
		}
		if cfg.Traced {
			// Capped like a long-running daemon's collector: tracing cost
			// is the steady-state ring write, not unbounded buffering.
			ncfg.Tracer = obs.NewCollectorCap(1 << 10)
			ncfg.Metrics = obs.NewRegistry()
		}
		n, err := netmesh.NewNode(ncfg)
		if err != nil {
			return LoadResult{}, fmt.Errorf("load %s: node %d: %w", p.Name, i, err)
		}
		nodes[i] = n
	}

	// Quiesce the heap before timing: the previous run's validation
	// garbage (userview builds a full reachability matrix) otherwise
	// leaks GC assist debt into this run's timed region, and the noise
	// lands on whichever arm of an overhead comparison runs second.
	runtime.GC()

	start := time.Now()
	want := make([]int, cfg.Procs)
	for _, m := range msgs {
		probe.invoked(m.ID)
		if err := nodes[m.From].Invoke(m); err != nil {
			return LoadResult{}, fmt.Errorf("load %s: invoke m%d: %w", p.Name, m.ID, err)
		}
		want[m.To]++
	}
	for i, n := range nodes {
		if err := n.WaitDeliveries(want[i], cfg.Timeout); err != nil {
			return LoadResult{}, fmt.Errorf("load %s: %w", p.Name, err)
		}
	}
	elapsed := time.Since(start)

	out := LoadResult{Runtime: "mesh", Protocol: p.Name, Msgs: len(msgs), Traced: cfg.Traced}
	procEvents := make([][]event.Event, cfg.Procs)
	var mesh netmesh.Counters
	var tr transport.Counters
	for i, n := range nodes {
		if err := n.Err(); err != nil {
			return LoadResult{}, fmt.Errorf("load %s: P%d: %w", p.Name, i, err)
		}
		procEvents[i] = n.Events()
		mesh.Add(n.MeshCounters())
		tr.Add(n.TransportCounters())
		if cfg.WALDir != "" {
			ws := n.WALStats()
			out.WALAppends += ws.Appends
			out.WALFlushes += ws.Flushes
		}
	}
	out.FramesOut, out.EnvelopesOut = mesh.FramesOut, mesh.EnvelopesOut
	out.Retransmits, out.CumAcked = tr.Retransmits, tr.CumAcked
	if _, err := userview.New(msgs, procEvents); err != nil {
		return LoadResult{}, fmt.Errorf("load %s: run invalid: %w", p.Name, err)
	}
	out.ElapsedMs = float64(elapsed.Microseconds()) / 1000
	out.MsgsPerSec = float64(len(msgs)) / elapsed.Seconds()
	if out.FramesOut > 0 {
		out.BatchFactor = float64(out.EnvelopesOut) / float64(out.FramesOut)
	}
	pool1 := netmesh.CodecPoolStats()
	out.PoolGets = pool1.Gets - pool0.Gets
	out.PoolMisses = pool1.Misses - pool0.Misses
	probe.fill(&out)
	return out, nil
}
