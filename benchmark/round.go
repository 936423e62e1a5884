package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

var epoch = time.Now()

// nowNs is the benchmark's monotonic clock: nanoseconds since start.
func nowNs() int64 { return int64(time.Since(epoch)) }

var errTimeout = errors.New("round timed out waiting for deliveries")

// generator is the single load-generating goroutine's state. Delivery
// callbacks (one handler goroutine per process) stamp at[i], bump
// delivered and poke wake; the generator never polls and, in the
// closed-loop phases, never sleeps on a timer.
type generator struct {
	st        *stack
	plan      *plan
	at        []atomic.Int64 // delivery instant per message (0 = not yet)
	delivered atomic.Int64
	// wake has room for one token: a delivery that finds it full knows
	// the generator will re-read delivered anyway.
	wake    chan struct{}
	timeout *time.Timer
	expired bool
}

func (g *generator) onDeliver(i int) {
	if i >= 0 && i < len(g.at) {
		g.at[i].Store(nowNs())
	}
	g.delivered.Add(1)
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// drain blocks until target messages have been delivered in total.
func (g *generator) drain(target int) error {
	for g.delivered.Load() < int64(target) {
		if g.expired {
			return errTimeout
		}
		select {
		case <-g.wake:
		case <-g.timeout.C:
			g.expired = true
		}
	}
	return nil
}

// closedLoop invokes msgs[lo:hi] keeping at most window of them in
// flight mesh-wide, then waits for the last delivery. Every earlier
// message has been delivered when it starts, so in flight = invoked −
// delivered.
func (g *generator) closedLoop(lo, hi, window int) error {
	for next := lo; next < hi; {
		if int64(next)-g.delivered.Load() < int64(window) {
			if err := g.st.invoke(next, g.plan.msgs[next]); err != nil {
				return err
			}
			next++
			continue
		}
		if err := g.drain(next - window + 1); err != nil {
			return err
		}
	}
	return g.drain(hi)
}

// quiesce waits until the mesh has gone quiet — nothing pending and
// the wire byte counter unchanged for settle — so counters read after
// a phase include its acknowledgements.
func (g *generator) quiesce(settle time.Duration) {
	deadline := time.Now().Add(2 * time.Second)
	quietSince := time.Now()
	prev := int64(-1)
	for time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		b := g.st.counters()[cBytesOut]
		if b != prev || g.st.pending() != 0 {
			prev, quietSince = b, time.Now()
			continue
		}
		if time.Since(quietSince) >= settle {
			return
		}
	}
}

// cpuNs is the process's user + system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// roundSeed derives round k's seed from the run's.
func roundSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// roundOpts selects what a round does beyond the four phases.
type roundOpts struct {
	preflight bool      // round 0: validate a prefix against the full spec
	traced    bool      // Tracer + Metrics on every process
	crash     bool      // end with a crash-restart of P0
	stop      time.Time // the run's deadline: the round times out no later
	spans     *spans    // nil outside the traced pass
	parent    int       // span the round hangs under
}

// roundResult is everything one round measured. Sample slices are
// sorted.
type roundResult struct {
	invoked int
	failed  int
	err     error // first output-check failure or the abort reason

	setupS      float64
	preflightS  float64
	idleUs      []float64
	pacedUs     []float64
	chanUs      [][]float64 // paced samples per channel (mux only)
	lateUs      []float64
	offeredFrac float64
	invokeNs    float64
	pacedBytes  int64 // wire bytes of the paced phase, acknowledgements included
	satMsgsS    float64
	cpuUs       float64 // per sat message
	satUtil     float64 // CPU time of the sat phase ÷ (wall time × GOMAXPROCS)
	allocBytes  float64
	allocs      float64
	retained    float64 // bytes per message after warm-up
	recoverMs   float64

	sat            counters // counter deltas over the sat phase
	whole          counters // counters at round end
	pendingAtDrain int
	gcCycles       uint32
	gcPauseMaxUs   float64
	goroutines     int
}

// buffers are the harness arrays reused by every round of a run, so
// the rounds' allocation counters see the program, not the harness.
type buffers struct {
	at []atomic.Int64
}

func newBuffers(n int) *buffers { return &buffers{at: make([]atomic.Int64, n)} }

// runRound boots a fresh mesh, runs the phases of p, validates the
// output and closes the mesh. seed is the round's own (see roundSeed).
func runRound(w workload, p *plan, seed int64, o roundOpts, buf *buffers, tmp string) (res roundResult) {
	total := len(p.msgs)
	for i := 0; i < total; i++ {
		buf.at[i].Store(0)
	}
	g := &generator{plan: p, at: buf.at[:total], wake: make(chan struct{}, 1), timeout: time.NewTimer(min(roundTimeout, time.Until(o.stop)))}
	defer g.timeout.Stop()
	sp := o.spans
	settle := w.settle()
	// A round that is aborted — a timeout, a refused invoke, a process
	// error — counts every one of its messages as failed.
	fail := func(err error) roundResult {
		res.err, res.failed, res.invoked = err, total, total
		return res
	}

	// Phase 1: boot, prove the links, probe; then warm up, untimed.
	span := sp.begin("boot", o.parent)
	t0 := nowNs()
	st, err := bootStack(w, p, seed, o.traced, tmp, g.onDeliver)
	if err != nil {
		return fail(fmt.Errorf("boot: %w", err))
	}
	defer st.close()
	g.st = st
	lo, hi := p.span(phLinks)
	if err := g.closedLoop(lo, hi, hi-lo); err != nil {
		return fail(fmt.Errorf("links: %w", err))
	}
	lo, hi = p.span(phProbe)
	if err := g.closedLoop(lo, hi, 1); err != nil {
		return fail(fmt.Errorf("probe: %w", err))
	}
	res.setupS = float64(nowNs()-t0) / 1e9
	sp.end(span)
	span = sp.begin("warm", o.parent)
	if o.preflight {
		lo, hi = p.span(phPreflight)
		if err := g.closedLoop(lo, hi, w.window); err != nil {
			return fail(fmt.Errorf("preflight: %w", err))
		}
		g.quiesce(settle)
		tp := nowNs()
		if err := st.preflight(p.msgs[:hi]); err != nil {
			return fail(fmt.Errorf("preflight: %w", err))
		}
		res.preflightS = float64(nowNs()-tp) / 1e9
	}
	lo, hi = p.span(phWarm)
	if err := g.closedLoop(lo, hi, w.window); err != nil {
		return fail(fmt.Errorf("warm: %w", err))
	}
	sp.end(span)
	heap0 := heapAfterGC()

	// Phase 2: idle, one message in flight.
	span = sp.begin("idle", o.parent)
	lo, hi = p.span(phIdle)
	idle := make([]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		t := nowNs()
		if err := st.invoke(i, p.msgs[i]); err != nil {
			return fail(fmt.Errorf("idle: %w", err))
		}
		if err := g.drain(i + 1); err != nil {
			return fail(fmt.Errorf("idle: %w", err))
		}
		idle = append(idle, float64(g.at[i].Load()-t)/1e3)
	}
	sort.Float64s(idle)
	res.idleUs = idle
	sp.end(span)

	// Phase 3: paced open loop at the cruise rate.
	span = sp.begin("paced", o.parent)
	if err := g.paced(w, &res, sp, span); err != nil {
		return fail(fmt.Errorf("paced: %w", err))
	}
	sp.end(span)

	// Phase 4: saturation at a closed window.
	span = sp.begin("sat", o.parent)
	lo, hi = p.span(phSat)
	n := float64(hi - lo)
	var m0, m1 runtime.MemStats
	c0 := st.counters()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuNs()
	ts := nowNs()
	if err := g.closedLoop(lo, hi, w.window); err != nil {
		return fail(fmt.Errorf("sat: %w", err))
	}
	cpu1 := cpuNs()
	runtime.ReadMemStats(&m1)
	last := ts
	for i := lo; i < hi; i++ {
		if t := g.at[i].Load(); t > last {
			last = t
		}
	}
	res.goroutines = runtime.NumGoroutine()
	res.satMsgsS = n / (float64(last-ts) / 1e9)
	res.cpuUs = float64(cpu1-cpu0) / 1e3 / n
	res.satUtil = float64(cpu1-cpu0) / (float64(last-ts) * float64(runtime.GOMAXPROCS(0)))
	res.allocBytes = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	res.allocs = float64(m1.Mallocs-m0.Mallocs) / n
	res.gcCycles = m1.NumGC - m0.NumGC
	for c := m0.NumGC; c < m1.NumGC && c < m0.NumGC+uint32(len(m1.PauseNs)); c++ {
		if us := float64(m1.PauseNs[c%uint32(len(m1.PauseNs))]) / 1e3; us > res.gcPauseMaxUs {
			res.gcPauseMaxUs = us
		}
	}
	g.quiesce(settle)
	res.pendingAtDrain = st.pending()
	res.sat = st.counters().sub(c0)
	sp.end(span)

	span = sp.begin("drain+gc", o.parent)
	_, warmEnd := p.span(phWarm)
	res.retained = (float64(heapAfterGC()) - float64(heap0)) / float64(hi-warmEnd)
	sp.end(span)
	// Nothing is lost on a clean workload, so there a retransmission or
	// a redial is a fault of the program's (the crash below causes both).
	stalled := st.stalled()

	if o.crash {
		span = sp.begin("crash-recover", o.parent)
		if err := g.crashRecover(&res); err != nil {
			return fail(fmt.Errorf("crash: %w", err))
		}
		sp.end(span)
	}

	// Output check.
	span = sp.begin("check", o.parent)
	defer sp.end(span)
	res.invoked = total
	res.whole = st.counters()
	if err := st.err(); err != nil {
		return fail(err)
	}
	if res.pendingAtDrain != 0 {
		return fail(fmt.Errorf("%d envelopes still unacknowledged after the drain", res.pendingAtDrain))
	}
	res.failed, res.err = checkOrder(p.msgs, w.domains(), st.deliveries())
	if res.err == nil && stalled != "" {
		res.err = fmt.Errorf("%s (the generator's ticks started at most %.0f us late)", stalled, percentile(res.lateUs, 1))
	}
	return res
}

// paced is the open-loop phase: message k is due at start + due[k],
// whole 1 ms ticks, and its latency runs from that scheduled instant —
// not from when the generator got round to it — to its delivery
// callback. The generator sleeps only until the next tick, never waits
// for the system, and reports how late each tick started.
func (g *generator) paced(w workload, res *roundResult, sp *spans, parent int) error {
	p, st := g.plan, g.st
	lo, hi := p.span(phPaced)
	n := hi - lo
	c0 := st.counters()
	start := nowNs() + int64(2*time.Millisecond)
	late := make([]float64, 0, n)
	var invokeNs, tickStart int64
	tick := time.Duration(-1)
	tickSpan := -1
	for k := 0; k < n; k++ {
		if p.due[k] != tick {
			tick = p.due[k]
			now := nowNs()
			if k > 0 {
				invokeNs += now - tickStart
				sp.end(tickSpan)
			}
			due := start + int64(tick)
			if now < due {
				time.Sleep(time.Duration(due - now))
				now = nowNs()
			}
			late = append(late, float64(now-due)/1e3)
			tickStart = now
			tickSpan = sp.begin("netmesh.Invoke", parent)
		}
		if err := st.invoke(lo+k, p.msgs[lo+k]); err != nil {
			return err
		}
	}
	end := nowNs()
	invokeNs += end - tickStart
	sp.end(tickSpan)
	if err := g.drain(hi); err != nil {
		return err
	}
	g.quiesce(w.settle())
	res.pacedBytes = st.counters().sub(c0)[cBytesOut]
	res.invokeNs = float64(invokeNs) / float64(n)

	nominal := float64(p.due[n-1] + time.Millisecond)
	res.offeredFrac = nominal / float64(end-start)
	if res.offeredFrac > 1 {
		res.offeredFrac = 1
	}
	lat := make([]float64, n)
	res.chanUs = make([][]float64, len(w.chans))
	for k := range lat {
		lat[k] = float64(g.at[lo+k].Load()-start-int64(p.due[k])) / 1e3
		if len(w.chans) > 0 {
			c := p.msgs[lo+k].dom
			res.chanUs[c] = append(res.chanUs[c], lat[k])
		}
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	for _, s := range res.chanUs {
		sort.Float64s(s)
	}
	res.pacedUs, res.lateUs = lat, late
	return nil
}

// crashRecover times the loss of service a crash-restart of P0 costs:
// from the Crash call, over the default downtime, checkpoint restore
// and journal replay, to the delivery at P0 of a message invoked once
// the new incarnation is live. (A message sent into the downtime would
// instead measure the retransmission timeout.)
func (g *generator) crashRecover(res *roundResult) error {
	lo, hi := g.plan.span(phCrash)
	t0 := nowNs()
	recovered, err := g.st.crashP0()
	if err != nil {
		return err
	}
	for !recovered() {
		if nowNs()-t0 > int64(5*time.Second) {
			return errors.New("P0 did not recover within 5 s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := g.closedLoop(lo, hi, 1); err != nil {
		return err
	}
	res.recoverMs = float64(g.at[hi-1].Load()-t0) / 1e6
	return nil
}
