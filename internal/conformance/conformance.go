// Package conformance drives message-ordering protocols through the
// deterministic simulator under randomized workloads and checks the
// resulting user views against forbidden-predicate specifications.
//
// It is the engine behind the Theorem 1 reproduction (cmd/mobench
// protocols): each protocol class's witness must always satisfy its own
// specification, and for every strictly stronger specification some seed
// must exhibit a violation.
package conformance

import (
	"errors"
	"fmt"
	"math/rand"

	"msgorder/internal/check"
	"msgorder/internal/crash"
	"msgorder/internal/dsim"
	"msgorder/internal/event"
	"msgorder/internal/obs"
	"msgorder/internal/predicate"
	"msgorder/internal/protocol"
	"msgorder/internal/sim"
	"msgorder/internal/transport"
	"msgorder/internal/userview"
)

// Config describes one workload run.
type Config struct {
	// Maker builds the protocol under test.
	Maker protocol.Maker
	// Procs is the number of processes (≥ 2).
	Procs int
	// InitialMsgs is the number of spontaneously invoked messages.
	InitialMsgs int
	// ChainBudget bounds follow-up messages triggered by deliveries
	// (causal chains). Zero disables chaining.
	ChainBudget int
	// ChainProb is the per-delivery probability of a follow-up.
	ChainProb float64
	// Colors, when non-empty, are assigned to messages at random
	// (uncolored otherwise).
	Colors []event.Color
	// Seed drives both the workload and the network adversary.
	Seed int64
	// DelayMin/DelayMax bound network delays (defaults 1/16).
	DelayMin, DelayMax int64
	// FIFONet makes the network order-preserving per channel.
	FIFONet bool
	// AllowSelf permits self-addressed messages (off by default; the
	// paper's model sends between distinct processes).
	AllowSelf bool
	// Broadcast makes every invocation a broadcast to all other
	// processes (the multicast extension); chained follow-ups broadcast
	// too.
	Broadcast bool
	// Faults, when non-nil, runs the workload on the live harness
	// (internal/sim) over a lossy network with the reliable transport
	// sublayer, instead of the deterministic simulator. The protocols
	// still see reliable channels; Stats additionally reports
	// retransmits, dups dropped and faults injected. Live runs are
	// seeded but not bit-reproducible (goroutine interleaving); leave
	// Faults nil for byte-identical deterministic runs.
	Faults *transport.FaultPlan
	// Crashes, when non-nil and non-empty, schedules process crashes on
	// the live harness (composable with Faults). Crash-restart plans
	// still require liveness — every message delivered; plans with a
	// crash-stop tolerate undelivered messages, since mail to (or
	// invocations queued on) a dead process is lost by design and the
	// recorded run is a valid prefix.
	Crashes *crash.Plan
	// Tracer, when non-nil, receives the run's causally stamped trace
	// records (both harness backends honor it).
	Tracer obs.Tracer
	// Metrics, when non-nil, receives the run's inhibition/latency
	// distributions (and transport/stall metrics on live runs).
	Metrics *obs.Registry
}

// WithTracer returns a copy of the config with the tracer attached.
func (c Config) WithTracer(t obs.Tracer) Config {
	c.Tracer = t
	return c
}

// WithMetrics returns a copy of the config with the registry attached.
func (c Config) WithMetrics(m *obs.Registry) Config {
	c.Metrics = m
	return c
}

func (c Config) withDefaults() Config {
	if c.Procs == 0 {
		c.Procs = 3
	}
	if c.InitialMsgs == 0 {
		c.InitialMsgs = 12
	}
	if c.DelayMax == 0 {
		c.DelayMin, c.DelayMax = 1, 16
	}
	if c.ChainBudget > 0 && c.ChainProb == 0 {
		c.ChainProb = 0.5
	}
	return c
}

// workload derives the randomized request stream for one config. Both
// harness backends (deterministic dsim and live sim) draw from the same
// seeded stream, so the workload shape is identical across them.
type workload struct {
	cfg    Config
	wrng   *rand.Rand
	budget int
}

func newWorkload(cfg Config) *workload {
	return &workload{
		cfg:    cfg,
		wrng:   rand.New(rand.NewSource(cfg.Seed*0x9e3779b9 + 17)),
		budget: cfg.ChainBudget,
	}
}

func (w *workload) color() event.Color {
	if len(w.cfg.Colors) == 0 {
		return event.ColorNone
	}
	return w.cfg.Colors[w.wrng.Intn(len(w.cfg.Colors))]
}

func (w *workload) pick(not event.ProcID) event.ProcID {
	for {
		p := event.ProcID(w.wrng.Intn(w.cfg.Procs))
		if w.cfg.AllowSelf || p != not {
			return p
		}
	}
}

// initial returns the i-th spontaneous request.
func (w *workload) initial() (from, to event.ProcID, color event.Color) {
	from = event.ProcID(w.wrng.Intn(w.cfg.Procs))
	color = w.color()
	if !w.cfg.Broadcast {
		to = w.pick(from)
	}
	return from, to, color
}

// chain rolls for a delivery-triggered follow-up from p. The RNG draw
// order (pick before color on unicasts) is load-bearing: it keeps
// seeded workloads byte-identical to the pre-refactor harness.
func (w *workload) chain(p event.ProcID) (to event.ProcID, color event.Color, ok bool) {
	if w.budget <= 0 || w.wrng.Float64() >= w.cfg.ChainProb {
		return 0, 0, false
	}
	w.budget--
	if !w.cfg.Broadcast {
		to = w.pick(p)
	}
	color = w.color()
	return to, color, true
}

// Run executes one simulation and requires quiescence (liveness). With
// cfg.Faults set it runs on the live lossy-network harness; otherwise
// on the deterministic simulator.
func Run(cfg Config) (*dsim.Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Faults != nil || (cfg.Crashes != nil && cfg.Crashes.Enabled()) {
		return runLive(cfg)
	}
	opts := []dsim.Option{
		dsim.WithSeed(cfg.Seed),
		dsim.WithDelay(cfg.DelayMin, cfg.DelayMax),
	}
	if cfg.FIFONet {
		opts = append(opts, dsim.WithFIFONetwork())
	}
	if cfg.Tracer != nil {
		opts = append(opts, dsim.WithTracer(cfg.Tracer))
	}
	if cfg.Metrics != nil {
		opts = append(opts, dsim.WithMetrics(cfg.Metrics))
	}
	s := dsim.New(cfg.Procs, cfg.Maker, opts...)
	w := newWorkload(cfg)
	s.OnDeliver(func(p event.ProcID, _ event.MsgID) []dsim.Request {
		to, color, ok := w.chain(p)
		if !ok {
			return nil
		}
		return []dsim.Request{{From: p, To: to, Color: color, Broadcast: cfg.Broadcast}}
	})
	for i := 0; i < cfg.InitialMsgs; i++ {
		from, to, color := w.initial()
		s.Invoke(int64(i)*2, dsim.Request{From: from, To: to, Color: color, Broadcast: cfg.Broadcast})
	}
	return s.MustQuiesce()
}

// runLive drives the same workload through the live harness with fault
// and/or crash injection and the reliable transport sublayer.
func runLive(cfg Config) (*dsim.Result, error) {
	sopts := []sim.Option{
		sim.WithSeed(cfg.Seed),
	}
	if cfg.Faults != nil {
		plan := *cfg.Faults
		if plan.Seed == 0 {
			plan.Seed = cfg.Seed*0x9e3779b9 + 101
		}
		sopts = append(sopts, sim.WithFaults(plan))
	}
	tolerateLoss := false
	if cfg.Crashes != nil {
		sopts = append(sopts, sim.WithCrashes(*cfg.Crashes))
		tolerateLoss = cfg.Crashes.HasStop()
	}
	if cfg.Tracer != nil {
		sopts = append(sopts, sim.WithTracer(cfg.Tracer))
	}
	if cfg.Metrics != nil {
		sopts = append(sopts, sim.WithMetrics(cfg.Metrics))
	}
	nw := sim.New(cfg.Procs, cfg.Maker, sopts...)
	w := newWorkload(cfg)
	nw.OnDeliver(func(p event.ProcID, _ event.MsgID) []sim.Request {
		to, color, ok := w.chain(p)
		if !ok {
			return nil
		}
		return []sim.Request{{From: p, To: to, Color: color, Broadcast: cfg.Broadcast}}
	})
	for i := 0; i < cfg.InitialMsgs; i++ {
		from, to, color := w.initial()
		err := nw.Invoke(sim.Request{From: from, To: to, Color: color, Broadcast: cfg.Broadcast})
		if err != nil && !(tolerateLoss && errors.Is(err, sim.ErrCrashed)) {
			return nil, err
		}
	}
	res, err := nw.Stop()
	if err != nil {
		return nil, err
	}
	if len(res.Undelivered) > 0 && !tolerateLoss {
		return nil, fmt.Errorf("lossy run not live: %d undelivered messages: %v",
			len(res.Undelivered), res.Undelivered)
	}
	return &dsim.Result{
		System:      res.System,
		View:        res.View,
		Stats:       res.Stats,
		Undelivered: res.Undelivered,
	}, nil
}

// Violation describes a specification violation found during a sweep.
type Violation struct {
	Seed  int64
	Match check.Match
	View  *userview.Run
}

// Sweep runs seeds 1..n and returns the views plus any violations of the
// predicate.
func Sweep(cfg Config, n int, pred *predicate.Predicate) ([]*dsim.Result, []Violation, error) {
	var results []*dsim.Result
	var violations []Violation
	for seed := int64(1); seed <= int64(n); seed++ {
		cfg.Seed = seed
		res, err := Run(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		results = append(results, res)
		if m, found := check.FindViolation(res.View, pred); found {
			violations = append(violations, Violation{Seed: seed, Match: m, View: res.View})
		}
	}
	return results, violations, nil
}

// AlwaysSatisfies sweeps n seeds and returns an error naming the first
// violating seed, if any. Use it to assert protocol safety.
func AlwaysSatisfies(cfg Config, n int, pred *predicate.Predicate) error {
	_, violations, err := Sweep(cfg, n, pred)
	if err != nil {
		return err
	}
	if len(violations) > 0 {
		v := violations[0]
		return fmt.Errorf("seed %d violates the specification with %s",
			v.Seed, v.Match.String(pred))
	}
	return nil
}

// FindsViolation sweeps up to n seeds and returns the first violation.
// Use it to show a protocol class is too weak for a specification.
func FindsViolation(cfg Config, n int, pred *predicate.Predicate) (Violation, bool, error) {
	for seed := int64(1); seed <= int64(n); seed++ {
		cfg.Seed = seed
		res, err := Run(cfg)
		if err != nil {
			return Violation{}, false, fmt.Errorf("seed %d: %w", seed, err)
		}
		if m, found := check.FindViolation(res.View, pred); found {
			return Violation{Seed: seed, Match: m, View: res.View}, true, nil
		}
	}
	return Violation{}, false, nil
}

// FaultCell is one cell of a fault-matrix sweep: a fault plan, the
// number of runs executed under it, how many violated the
// specification, and the summed run statistics (including transport
// counters).
type FaultCell struct {
	Plan       transport.FaultPlan
	Runs       int
	Violations int
	Stats      protocol.Stats
}

// FaultMatrix sweeps the workload across fault plans on the live
// harness, checking every run's user view against pred. Each plan runs
// `seeds` seeds (1..seeds). A protocol satisfies its specification
// under loss iff every cell reports zero violations.
func FaultMatrix(cfg Config, plans []transport.FaultPlan, seeds int, pred *predicate.Predicate) ([]FaultCell, error) {
	cells := make([]FaultCell, 0, len(plans))
	for _, plan := range plans {
		cell := FaultCell{Plan: plan}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			cfg.Seed = seed
			p := plan
			cfg.Faults = &p
			res, err := Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("plan %+v seed %d: %w", plan, seed, err)
			}
			cell.Runs++
			cell.Stats.Add(res.Stats)
			if pred != nil {
				if _, bad := check.FindViolation(res.View, pred); bad {
					cell.Violations++
				}
			}
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// CrashCell is one cell of a crash-matrix sweep: a crash plan, the
// number of runs executed under it, how many violated the
// specification, how many left messages undelivered (only legal for
// plans with a crash-stop), and the summed run statistics (including
// crash/recovery counters).
type CrashCell struct {
	Plan        crash.Plan
	Runs        int
	Violations  int
	Undelivered int
	Stats       protocol.Stats
}

// CrashMatrix sweeps the workload across crash plans on the live
// harness, checking every run's user view against pred. Each plan runs
// `seeds` seeds (1..seeds). A protocol survives crashes iff every cell
// reports zero violations — the delivered prefix must still satisfy the
// specification even when a crash-stop makes the run incomplete.
func CrashMatrix(cfg Config, plans []crash.Plan, seeds int, pred *predicate.Predicate) ([]CrashCell, error) {
	cells := make([]CrashCell, 0, len(plans))
	for _, plan := range plans {
		cell := CrashCell{Plan: plan}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			cfg.Seed = seed
			p := plan
			cfg.Crashes = &p
			res, err := Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("plan %+v seed %d: %w", plan, seed, err)
			}
			cell.Runs++
			cell.Stats.Add(res.Stats)
			cell.Undelivered += len(res.Undelivered)
			if pred != nil {
				if _, bad := check.FindViolation(res.View, pred); bad {
					cell.Violations++
				}
			}
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// ExhaustiveConfig describes one exhaustive-exploration check: a fixed
// workload replayed under every network arrival order (see
// dsim.Explore). Unlike the seed sweeps above, a pass is a proof for
// the workload, not a sample of it. Hitting MaxRuns is reported as an
// error: the check was a sample, not a proof.
type ExhaustiveConfig = dsim.ExploreConfig

// firstViolatingSchedule explores arrival orders until one violates
// the predicate, returning it (nil when none does) and the search
// stats.
func firstViolatingSchedule(cfg ExhaustiveConfig, pred *predicate.Predicate) (dsim.ExploreStats, *Violation, error) {
	var bad *Violation
	st, err := dsim.ExploreWithStats(cfg, func(res *dsim.Result) bool {
		if m, found := check.FindViolation(res.View, pred); found {
			bad = &Violation{Match: m, View: res.View}
			return false
		}
		return true
	})
	return st, bad, err
}

// AlwaysSatisfiesAllSchedules explores every arrival order of the
// workload and returns an error describing the first violating schedule,
// if any. A nil error with the returned stats is a proof that no schedule
// of this workload violates the predicate.
func AlwaysSatisfiesAllSchedules(cfg ExhaustiveConfig, pred *predicate.Predicate) (dsim.ExploreStats, error) {
	st, bad, err := firstViolatingSchedule(cfg, pred)
	if err == nil && bad != nil {
		err = fmt.Errorf("a schedule violates the specification with %s", bad.Match.String(pred))
	}
	return st, err
}

// FindsViolationInSomeSchedule explores arrival orders until one violates
// the predicate. The Violation's Seed is meaningless here (exploration is
// schedule-driven, not seed-driven) and is left zero.
func FindsViolationInSomeSchedule(cfg ExhaustiveConfig, pred *predicate.Predicate) (Violation, bool, error) {
	_, bad, err := firstViolatingSchedule(cfg, pred)
	if err != nil || bad == nil {
		return Violation{}, false, err
	}
	return *bad, true, nil
}
