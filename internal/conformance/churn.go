// Membership-churn conformance: the net matrix's cross-runtime check
// extended with dynamic membership. Each cell runs one protocol on a
// loopback TCP mesh under one topology-shaped network environment and
// performs one membership operation mid-run:
//
//   - join: the churned process departs and a successor joins at the
//     next epoch via protocol-correct state transfer — its WAL
//     checkpoint is captured (member.Capture), materialized into a
//     fresh journal, and the joiner durable-boots from it (snapshot
//     install + verified suffix replay). Traffic then continues over
//     the full group, so the transferred ordering state is exercised,
//     and the joiner's user view must splice byte-identically onto the
//     departed incarnation's.
//   - handoff: the paper's §5 mobile scenario at the runtime layer —
//     the same logical member migrates hosts through the identical
//     transfer machinery, with no epoch change.
//   - leave: a clean departure (Tracker.Leave); the survivors' views
//     of the pre-departure traffic must match the sim reference.
//   - evict: the churned process goes silent (one-way partition in the
//     asym-partition environment, process death otherwise) and the
//     heartbeat detector + member.Evictor must administratively evict
//     exactly that process — evicting a survivor fails the cell.
//
// Leave and evict cells end at the view change: the catalog protocols
// are fixed-n (sync-ra needs every member's reply to grant its send
// lock), so post-departure traffic is only meaningful for operations
// where the slot is refilled (join, handoff). Reconfiguring protocol
// instances to a shrunken group at an epoch boundary is the roadmap's
// follow-on.
package conformance

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"msgorder/internal/check"
	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/member"
	"msgorder/internal/protocol"
	"msgorder/internal/transport"
)

// ChurnProtocol names one protocol for the churn matrix; its Pred, when
// set, is checked against every cell's final mesh view.
type ChurnProtocol = NetProtocol

// ChurnConfig shapes the churn sweep.
type ChurnConfig struct {
	// Procs is the mesh size (default 3). The churned process is
	// always the last slot, keeping P0 (the sync coordinator) stable.
	Procs int
	// Msgs is the lockstep workload length (default 12); the
	// membership operation fires after Msgs/2 deliveries.
	Msgs int
	// Seed drives the workload shape (default 1).
	Seed int64
	// PerMsg bounds one lockstep delivery wait (default 10s).
	PerMsg time.Duration
	// Detect bounds the evict cells' detection wait (default 10s).
	Detect time.Duration
	// Beat is the heartbeat period for evict cells (default 10ms; the
	// detector timeout and evictor grace derive from it).
	Beat time.Duration
	// WALDir hosts every node's journal and the transfer scratch
	// files. Required: churn cells are durable by construction.
	WALDir string
	// Ops and Envs, when non-empty, restrict the sweep to a sub-matrix
	// (defaults: ChurnOps() × ChurnEnvs()).
	Ops  []string
	Envs []string
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	c.Procs, c.Msgs, c.Seed = cmp.Or(c.Procs, 3), cmp.Or(c.Msgs, 12), cmp.Or(c.Seed, 1)
	if c.PerMsg <= 0 {
		c.PerMsg = 10 * time.Second
	}
	if c.Detect <= 0 {
		c.Detect = 10 * time.Second
	}
	if c.Beat <= 0 {
		c.Beat = 10 * time.Millisecond
	}
	return c
}

// ChurnOps lists the membership operations every protocol sweeps.
func ChurnOps() []string { return []string{"join", "leave", "evict", "handoff"} }

// ChurnEnvs lists the network environments every operation runs under.
func ChurnEnvs() []string {
	return []string{"clean", "geo-lossy", "asym-partition", "crash-restart"}
}

// ChurnCell is one (protocol, op, env) cell's outcome.
type ChurnCell struct {
	Protocol string `json:"protocol"`
	Op       string `json:"op"`
	Env      string `json:"env"`
	// Procs is the mesh size; the churned process is its last slot.
	Procs int `json:"procs"`
	// Match reports the surviving members' user view equals the sim
	// reference byte for byte (the acceptance criterion).
	Match bool `json:"match"`
	// SpecViolation reports the mesh view violating the protocol's
	// specification predicate (always false on a passing cell).
	SpecViolation bool `json:"spec_violation"`
	// SimKey and MeshKey are the canonical view encodings compared.
	SimKey  string `json:"-"`
	MeshKey string `json:"-"`
	// Epoch is the final membership epoch (join 2, leave/evict 1,
	// handoff 0).
	Epoch uint64 `json:"epoch"`
	// Evicted lists administratively removed processes (evict cells).
	Evicted []int `json:"evicted,omitempty"`
	// Msgs is the number of messages the validated view covers (the
	// full workload for join/handoff, the pre-churn half otherwise).
	Msgs int `json:"msgs"`
	// Stats aggregates the mesh nodes' protocol tallies.
	Stats protocol.Stats `json:"stats"`
	// SimElapsed and MeshElapsed are the wall-clock run times.
	SimElapsed  time.Duration `json:"sim_elapsed_ns"`
	MeshElapsed time.Duration `json:"mesh_elapsed_ns"`
}

// churnEpoch is the final membership epoch each operation must reach:
// join is a leave plus a join, leave and evict are one view change,
// and handoff migrates the same logical member with no view change.
var churnEpoch = map[string]uint64{"join": 2, "leave": 1, "evict": 1, "handoff": 0}

// Err reports why the cell fails its acceptance check, or nil: the
// surviving views must match the sim reference and satisfy the
// protocol's specification, the epoch must be the operation's, an
// evict cell must have evicted exactly the churned process, and the
// validated view must cover at least one message.
func (c ChurnCell) Err() error {
	name := c.Protocol + "/" + c.Op + "/" + c.Env
	switch {
	case !c.Match:
		return fmt.Errorf("%s: surviving views diverge from sim\n sim: %s\nmesh: %s", name, c.SimKey, c.MeshKey)
	case c.SpecViolation:
		return fmt.Errorf("%s: mesh view violates the protocol's specification", name)
	case c.Epoch != churnEpoch[c.Op]:
		return fmt.Errorf("%s: epoch %d, want %d", name, c.Epoch, churnEpoch[c.Op])
	case c.Op == "evict" && (len(c.Evicted) != 1 || c.Evicted[0] != c.Procs-1):
		return fmt.Errorf("%s: evicted %v, want exactly the churned process P%d", name, c.Evicted, c.Procs-1)
	case c.Msgs <= 0:
		return fmt.Errorf("%s: validated view covers no messages", name)
	}
	return nil
}

// ChurnMatrix sweeps every protocol through every (op, env) churn
// cell. A cell failing its membership bookkeeping (wrong epoch, wrong
// eviction, state transfer rejected) is an error; measured outcomes
// (view divergence, spec violations) land in the cells for callers to
// assert.
func ChurnMatrix(cfg ChurnConfig, protos []ChurnProtocol) ([]ChurnCell, error) {
	cfg = cfg.withDefaults()
	if cfg.Procs < 3 {
		return nil, fmt.Errorf("churn: need ≥ 3 processes, got %d", cfg.Procs)
	}
	if cfg.WALDir == "" {
		return nil, fmt.Errorf("churn: WALDir is required")
	}
	ops, envs := cfg.Ops, cfg.Envs
	if len(ops) == 0 {
		ops = ChurnOps()
	}
	if len(envs) == 0 {
		envs = ChurnEnvs()
	}
	for _, op := range ops {
		if !slices.Contains(ChurnOps(), op) {
			return nil, fmt.Errorf("churn: unknown op %q", op)
		}
	}
	for _, env := range envs {
		if !slices.Contains(ChurnEnvs(), env) {
			return nil, fmt.Errorf("churn: unknown env %q", env)
		}
	}
	var cells []ChurnCell
	for _, p := range protos {
		for _, op := range ops {
			for _, env := range envs {
				cell, err := runChurnCell(p, cfg, op, env)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", p.Name, op, env, err)
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// churnInjector builds the environment's topology-shaped fault plan.
// The churned process is the last slot; P0 is the observer.
func churnInjector(env string, procs int, seed int64) *transport.Injector {
	switch env {
	case "geo-lossy":
		// Two geo zones — the observer alone vs everyone else — with
		// cross-zone delay and drop, plus one slow link to the churned
		// process: the mobile on a degraded last hop.
		return transport.NewInjector(transport.FaultPlan{
			Zones:          [][]event.ProcID{{0}, allProcs(procs)[1:]},
			CrossZoneDelay: 0.25,
			CrossZoneDrop:  0.1,
			SlowLinks:      []transport.SlowLink{{A: 0, B: event.ProcID(procs - 1), DelayProb: 0.3}},
			Seed:           seed*0x9e3779b9 + 211,
		})
	case "asym-partition":
		// Cuts are armed mid-run (CutOneWay): permanently from the
		// churned process in evict cells, transiently between two
		// survivors otherwise.
		return transport.NewInjector(transport.FaultPlan{Seed: seed*0x9e3779b9 + 223})
	default:
		return nil
	}
}

// runChurnCell executes one (protocol, op, env) cell.
func runChurnCell(p ChurnProtocol, cfg ChurnConfig, op, env string) (ChurnCell, error) {
	msgs := NetWorkload(NetMatrixConfig{Procs: cfg.Procs, Msgs: cfg.Msgs, Seed: cfg.Seed}, p.Colors)
	mid := len(msgs) / 2
	churned := event.ProcID(cfg.Procs - 1)
	// Leave/evict cells end at the view change; join/handoff refill the
	// slot and run the whole workload through the transferred state.
	simMsgs := msgs
	if op == "leave" || op == "evict" {
		simMsgs = msgs[:mid]
	}
	simView, simElapsed, err := runSimLockstep(p.Maker, cfg.Procs, cfg.Seed, simMsgs)
	if err != nil {
		return ChurnCell{}, err
	}

	var det *crash.Detector
	var evictor *member.Evictor
	tracker := member.NewTracker(cfg.Procs, allProcs(cfg.Procs))
	s := cellSpec{
		name: p.Name + "/" + op + "/" + env, procs: cfg.Procs, seed: cfg.Seed, maker: p.Maker,
		wait: cfg.PerMsg, inj: churnInjector(env, cfg.Procs, cfg.Seed),
		snapshotEvery: 6, walDir: cfg.WALDir,
	}
	if op == "evict" {
		det = crash.NewDetector(cfg.Procs, crash.DetectorConfig{Interval: cfg.Beat}, nil)
		defer det.Close()
		evictor = member.NewEvictor(tracker, det, member.EvictorConfig{})
		defer evictor.Close()
		s.beat, s.detector = cfg.Beat, det
	}
	c, err := newCluster(s)
	if err != nil {
		return ChurnCell{}, err
	}
	defer c.close()

	start := time.Now()
	ws := [][]event.Message{msgs}
	err = c.drive(ws, 0, mid, func(r int) error {
		if r != mid/2 {
			return nil
		}
		switch {
		case env == "crash-restart":
			// A survivor crash-restarts before the churn: recovery
			// and membership transfer must compose.
			return c.nodes[1].Crash(10 * time.Millisecond)
		case env == "asym-partition" && op != "evict":
			// Transient one-way cut between survivors; the budget
			// heals it and retransmission masks it.
			s.inj.CutOneWay([]event.ProcID{0}, []event.ProcID{1}, 64)
		}
		return nil
	})
	if err != nil {
		return ChurnCell{}, err
	}

	// The churn point: every pre-churn message is delivered.
	churnedEvents := c.nodes[churned].Events()
	var transferred *member.Checkpoint
	switch op {
	case "leave":
		if _, err := tracker.Leave(churned); err != nil {
			return ChurnCell{}, err
		}
		c.stop(int(churned))
	case "evict":
		if env == "asym-partition" {
			// The churned process stays alive but its outbound traffic
			// — heartbeats included — is swallowed by a permanent
			// one-way cut: the silent mobile.
			s.inj.CutOneWay([]event.ProcID{churned}, allProcs(cfg.Procs-1), -1)
		} else {
			c.stop(int(churned))
		}
		deadline := time.Now().Add(cfg.Detect)
		for {
			ev := evictor.Evicted()
			if len(ev) > 0 {
				if len(ev) != 1 || ev[0] != churned {
					return ChurnCell{}, fmt.Errorf("evicted %v, want exactly [%d]", ev, churned)
				}
				break
			}
			if time.Now().After(deadline) {
				return ChurnCell{}, fmt.Errorf("eviction of P%d not detected within %v", churned, cfg.Detect)
			}
			time.Sleep(cfg.Beat)
		}
		if v := tracker.View(); v.Contains(churned) || v.Count() != cfg.Procs-1 {
			return ChurnCell{}, fmt.Errorf("post-evict view %v", v.Members())
		}
	case "join", "handoff":
		epochBefore := tracker.Epoch()
		if op == "join" {
			if _, err := tracker.Leave(churned); err != nil {
				return ChurnCell{}, err
			}
		}
		c.stop(int(churned))
		w, err := crash.OpenFileWAL(c.walPath(int(churned), ""))
		if err != nil {
			return ChurnCell{}, fmt.Errorf("reopen departed WAL: %w", err)
		}
		ck := member.Capture(tracker.Epoch(), churned, w)
		w.Close()
		transferred = &ck
		// The transferred journal suffix's user-event projection must
		// be byte-identical to the tail of the departed incarnation's
		// live view — the state transfer acceptance check.
		proj := member.UserEvents(ck.Suffix)
		if len(proj) > len(churnedEvents) {
			return ChurnCell{}, fmt.Errorf("suffix projects %d user events, live view has %d",
				len(proj), len(churnedEvents))
		}
		tail := churnedEvents[len(churnedEvents)-len(proj):]
		for i := range proj {
			if proj[i] != tail[i] {
				return ChurnCell{}, fmt.Errorf("suffix projection diverges at %d: %v != %v", i, proj[i], tail[i])
			}
		}
		if err := ck.Materialize(c.walPath(int(churned), "-next")); err != nil {
			return ChurnCell{}, fmt.Errorf("materialize transfer: %w", err)
		}
		if err := c.boot(int(churned), "-next"); err != nil {
			return ChurnCell{}, fmt.Errorf("joiner boot: %w", err)
		}
		if op == "join" {
			if _, err := tracker.Join(churned); err != nil {
				return ChurnCell{}, err
			}
			if err := tracker.CheckEpoch(epochBefore); err == nil {
				return ChurnCell{}, fmt.Errorf("pre-churn epoch still accepted after join")
			}
		}
		if err := c.drive(ws, mid, len(msgs), nil); err != nil {
			return ChurnCell{}, err
		}
	default:
		return ChurnCell{}, fmt.Errorf("unknown churn op %q", op)
	}
	elapsed := time.Since(start)

	t, err := c.collect(0, simMsgs, func(procEvents [][]event.Event) {
		// The departed incarnation's events, captured before its close;
		// for join/handoff the successor's events splice on after.
		if c.nodes[churned] == nil || transferred != nil {
			pre := churnedEvents[:len(churnedEvents):len(churnedEvents)]
			procEvents[churned] = append(pre, procEvents[churned]...)
		}
	})
	if err != nil {
		return ChurnCell{}, err
	}
	cell := ChurnCell{
		Protocol: p.Name, Op: op, Env: env, Procs: cfg.Procs,
		Epoch: tracker.Epoch(), Msgs: len(simMsgs), Stats: t.stats,
		SimKey: simView.Key(), MeshKey: t.view.Key(),
		SimElapsed: simElapsed, MeshElapsed: elapsed,
	}
	cell.Match = cell.SimKey == cell.MeshKey
	if evictor != nil {
		for _, q := range evictor.Evicted() {
			cell.Evicted = append(cell.Evicted, int(q))
		}
	}
	if p.Pred != nil {
		_, cell.SpecViolation = check.FindViolation(t.view, p.Pred)
	}
	return cell, nil
}

// allProcs returns [0, n).
func allProcs(n int) []event.ProcID {
	out := make([]event.ProcID, n)
	for i := range out {
		out[i] = event.ProcID(i)
	}
	return out
}
