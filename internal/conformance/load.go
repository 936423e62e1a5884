// Open-loop load: unlike the lockstep conformance matrices, the load
// runner invokes the whole seeded workload up front and lets the mesh
// drain it at full speed — the regime where frame batching and
// pipelined acks engage. It is the traced-vs-untraced arm of E15's
// observability-overhead gate. Every run still validates the user view
// (exactly-once, per-process event sanity) via userview, so a
// throughput number from a broken run cannot exist.
package conformance

import (
	"cmp"
	"runtime"
	"sync/atomic"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/obs"
)

// latencyMetric is the obs histogram name load runs record
// invoke→deliver latency under.
const latencyMetric = "load.latency.us"

// LoadConfig shapes one open-loop load run.
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
	// Traced gives every mesh node its own obs collector and metrics
	// registry — the full tracing pipeline the fleet observability
	// plane scrapes — so traced and untraced runs of the same workload
	// measure the instrumentation overhead.
	Traced bool
}

func (c LoadConfig) withDefaults() LoadConfig {
	c.Procs, c.Msgs, c.Seed = cmp.Or(c.Procs, 3), cmp.Or(c.Msgs, 4000), cmp.Or(c.Seed, 1)
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	return c
}

// LoadResult is one load run: sustained throughput plus the
// invoke→deliver latency quantiles, in microseconds (power-of-two
// histogram quantiles, so estimates are bucket-granular).
type LoadResult struct {
	Msgs         int
	MsgsPerSec   float64
	P50us, P99us int64
}

// RunLoadMesh drives the open-loop workload through a loopback TCP
// mesh and reports sustained throughput and latency quantiles. The
// final user view is validated (exactly-once per message) before any
// number is returned.
func RunLoadMesh(p NetProtocol, cfg LoadConfig) (LoadResult, error) {
	cfg = cfg.withDefaults()
	msgs := NetWorkload(NetMatrixConfig{Procs: cfg.Procs, Msgs: cfg.Msgs, Seed: cfg.Seed}, p.Colors)
	// invoked[id] is m<id>'s invoke time in UnixNano; the delivering
	// node folds invoke→deliver into a power-of-two histogram.
	invoked := make([]int64, len(msgs))
	latency := obs.NewRegistry()
	s := cellSpec{
		name: "load " + p.Name, procs: cfg.Procs, seed: cfg.Seed, maker: p.Maker,
		openLoop: true, wait: cfg.Timeout,
		onDeliver: func(id event.MsgID) {
			t := atomic.LoadInt64(&invoked[id])
			latency.Observe(latencyMetric, (time.Now().UnixNano()-t)/1000)
		},
	}
	if cfg.Traced {
		// Capped like a long-running daemon's collector: tracing cost
		// is the steady-state ring write, not unbounded buffering.
		s.tracer = func() *obs.Collector { return obs.NewCollectorCap(1 << 10) }
	}
	c, err := newCluster(s)
	if err != nil {
		return LoadResult{}, err
	}
	defer c.close()

	// Quiesce the heap before timing: the previous run's validation
	// garbage (userview builds a full reachability matrix) otherwise
	// leaks GC assist debt into this run's timed region, and the noise
	// lands on whichever arm of an overhead comparison runs second.
	runtime.GC()

	start := time.Now()
	err = c.drive([][]event.Message{msgs}, 0, len(msgs), func(r int) error {
		atomic.StoreInt64(&invoked[msgs[r].ID], time.Now().UnixNano())
		return nil
	})
	if err != nil {
		return LoadResult{}, err
	}
	elapsed := time.Since(start)
	if _, err := c.collect(0, msgs, nil); err != nil {
		return LoadResult{}, err
	}
	h := latency.Snapshot().Histograms[latencyMetric]
	return LoadResult{
		Msgs:       len(msgs),
		MsgsPerSec: float64(len(msgs)) / elapsed.Seconds(),
		P50us:      h.Quantile(0.50),
		P99us:      h.Quantile(0.99),
	}, nil
}
