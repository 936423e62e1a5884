// Package msgorder is a library for specifying, classifying, checking and
// executing message-ordering guarantees in distributed systems. It
// implements the framework of V. V. Murty and V. K. Garg,
// "Characterization of Message Ordering Specifications and Protocols"
// (ICDCS 1997):
//
//   - Specify an ordering as a forbidden predicate — an existential
//     conjunction of causality atoms over message variables, with
//     optional process and color guards:
//
//     p, err := msgorder.Parse("x, y : x.s -> y.s && y.r -> x.r")
//
//   - Classify it: is it implementable, and does it need nothing, tags on
//     user messages, or control messages?
//
//     res, err := msgorder.Classify(p)   // res.Class == msgorder.Tagged
//
//   - Check recorded runs against it, and construct the paper's witness
//     runs (logically synchronous / causally ordered runs that violate a
//     too-strong specification).
//
//   - Execute real protocols (tagless, FIFO, three causal-ordering
//     algorithms including causal broadcast, flush channels, k-weaker
//     FIFO, and two logically synchronous protocols) over a deterministic
//     simulator, exhaustive schedule exploration, a live
//     goroutine-per-process network, or a real multi-process TCP mesh
//     (NewMeshNode and the cmd/mod daemon), and verify the runs they
//     produce — or synthesize a protocol directly from a predicate with
//     GenerateProtocol.
//
// The subpackages under internal/ carry the implementation; this package
// re-exports the stable surface.
package msgorder

import (
	"msgorder/internal/catalog"
	"msgorder/internal/chanmux"
	"msgorder/internal/check"
	"msgorder/internal/classify"
	"msgorder/internal/conformance"
	"msgorder/internal/crash"
	"msgorder/internal/dsim"
	"msgorder/internal/event"
	"msgorder/internal/lattice"
	"msgorder/internal/member"
	"msgorder/internal/netmesh"
	"msgorder/internal/obs"
	"msgorder/internal/predicate"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/causal"
	"msgorder/internal/protocols/fifo"
	"msgorder/internal/protocols/flush"
	"msgorder/internal/protocols/handoff"
	"msgorder/internal/protocols/kweaker"
	syncproto "msgorder/internal/protocols/sync"
	"msgorder/internal/protocols/tagless"
	"msgorder/internal/run"
	"msgorder/internal/spec"
	"msgorder/internal/synth"
	"msgorder/internal/trace"
	"msgorder/internal/transport"
	"msgorder/internal/universe"
	"msgorder/internal/userview"
)

// Core model types.
type (
	// ProcID identifies a process (0..n-1).
	ProcID = event.ProcID
	// MsgID identifies a message within a run.
	MsgID = event.MsgID
	// Color is an optional message attribute used by guarded
	// specifications.
	Color = event.Color
	// Message carries a message's immutable attributes.
	Message = event.Message
	// Event is one of the four system events of a message.
	Event = event.Event
	// Kind distinguishes invoke/send/receive/deliver.
	Kind = event.Kind
)

// Message colors.
const (
	ColorNone  = event.ColorNone
	ColorRed   = event.ColorRed
	ColorBlue  = event.ColorBlue
	ColorGreen = event.ColorGreen
)

// Event kinds.
const (
	Invoke  = event.Invoke
	Send    = event.Send
	Receive = event.Receive
	Deliver = event.Deliver
)

// Specification types.
type (
	// Predicate is a forbidden predicate.
	Predicate = predicate.Predicate
	// PredicateBuilder assembles predicates programmatically.
	PredicateBuilder = predicate.Builder
	// Part selects a message variable's send or deliver event.
	Part = predicate.Part
	// Classification is the classifier's full result.
	Classification = classify.Result
	// Class is the protocol class a specification requires.
	Class = classify.Class
	// CatalogEntry is a named specification from the paper.
	CatalogEntry = catalog.Entry
)

// Protocol classes.
const (
	Unimplementable = classify.Unimplementable
	Tagless         = classify.Tagless
	Tagged          = classify.Tagged
	General         = classify.General
)

// Event parts for the predicate builder.
const (
	S = predicate.S // send
	R = predicate.R // deliver
)

// Run types.
type (
	// Run is a user-view run: the partial order of send and deliver
	// events the user observes.
	Run = userview.Run
	// SystemRun is a full four-event system run.
	SystemRun = run.Run
	// Match is a satisfying assignment of a predicate in a run.
	Match = check.Match
)

// Parse parses a forbidden predicate from its text syntax, e.g.
// "x, y : x.s -> y.s && y.r -> x.r".
func Parse(src string) (*Predicate, error) { return predicate.Parse(src) }

// MustParse is Parse panicking on error, for constants and tests.
func MustParse(src string) *Predicate { return predicate.MustParse(src) }

// NewPredicate starts a programmatic predicate builder over the given
// variables.
func NewPredicate(vars ...string) *PredicateBuilder { return predicate.NewBuilder(vars...) }

// Classify runs the paper's classification algorithm (Theorems 2-4) on a
// forbidden predicate.
func Classify(p *Predicate) (*Classification, error) { return classify.Classify(p) }

// NewRun builds and validates a user-view run from a message table and
// per-process sequences of send/deliver events.
func NewRun(msgs []Message, procs [][]Event) (*Run, error) {
	return userview.New(msgs, procs)
}

// Satisfies reports whether a complete run belongs to the predicate's
// specification set X_B.
func Satisfies(r *Run, p *Predicate) bool { return check.Satisfies(r, p) }

// FindViolation searches a run for an instantiation of the forbidden
// predicate.
func FindViolation(r *Run, p *Predicate) (Match, bool) { return check.FindViolation(r, p) }

// Catalog returns the paper's specification catalog.
func Catalog() []CatalogEntry { return catalog.Entries() }

// CatalogByName looks up one catalog entry.
func CatalogByName(name string) (CatalogEntry, bool) { return catalog.ByName(name) }

// Witness constructions (Theorems 2 and 4). Each returns a run in the
// named limit set that satisfies the predicate, proving the containment
// X_limit ⊆ X_B false.
var (
	// SyncWitness returns a logically synchronous run satisfying p
	// (exists iff p's graph is acyclic — then p is unimplementable).
	SyncWitness = universe.SyncWitness
	// COWitness returns a causally ordered run satisfying p (exists when
	// p has no cycle of order ≤ 1 — then p needs control messages).
	COWitness = universe.COWitness
	// AsyncWitness returns any valid run satisfying p (exists iff p is
	// satisfiable — then p needs some protocol).
	AsyncWitness = universe.AsyncWitness
)

// Diagram renders a run as an ASCII time diagram in the paper's style.
func Diagram(r *Run) string { return trace.UserDiagram(r) }

// SystemDiagram renders a system run as an ASCII time diagram.
func SystemDiagram(r *SystemRun) string { return trace.SystemDiagram(r) }

// Protocol execution.
type (
	// ProtocolMaker constructs protocol instances for the simulators.
	ProtocolMaker = protocol.Maker
	// SimConfig drives one simulated workload.
	SimConfig = conformance.Config
	// SimResult is a completed simulation.
	SimResult = dsim.Result
	// Stats aggregates protocol overhead.
	Stats = protocol.Stats
	// FaultPlan configures lossy-network fault injection for Simulate
	// (set SimConfig.Faults): seeded drop/duplicate/delay rates and
	// healing partitions. The reliable transport sublayer keeps the
	// protocols on the paper's channel model regardless.
	FaultPlan = transport.FaultPlan
	// FaultPartition is a temporary network cut inside a FaultPlan.
	FaultPartition = transport.Partition
	// FaultCell is one cell of a FaultSweep: plan, runs, violations and
	// summed statistics.
	FaultCell = conformance.FaultCell
	// CrashPlan schedules process crashes for Simulate (set
	// SimConfig.Crashes): seeded crash-stop / crash-restart specs,
	// checkpoint cadence, and failure-detector tuning. Restarted
	// processes recover their ordering state from a write-ahead log.
	CrashPlan = crash.Plan
	// CrashSpec schedules one crash of one process within a CrashPlan.
	CrashSpec = crash.Spec
	// CrashDetectorConfig tunes the crash failure detector.
	CrashDetectorConfig = crash.DetectorConfig
	// CrashCell is one cell of a CrashSweep: plan, runs, violations,
	// undelivered tally and summed statistics.
	CrashCell = conformance.CrashCell
)

// Crash plan constructors.
var (
	// CrashRestartStagger crashes each listed process once, staggered
	// along the adversary's release sequence, each restarting after the
	// downtime.
	CrashRestartStagger = crash.RestartStagger
	// CrashStopOne kills one process forever at the given release.
	CrashStopOne = crash.StopOne
)

// Protocols returns the built-in protocol registry: name -> maker.
func Protocols() map[string]ProtocolMaker {
	return map[string]ProtocolMaker{
		"tagless":    tagless.Maker,
		"fifo":       fifo.Maker,
		"causal-rst": causal.RSTMaker,
		"causal-ses": causal.SESMaker,
		"causal-bss": causal.BSSMaker,
		"sync":       syncproto.Maker,
		"sync-ra":    syncproto.RAMaker,
		"flush":      flush.Maker,
		"kweaker-1":  kweaker.Maker(1),
		"kweaker-2":  kweaker.Maker(2),
		"handoff":    handoff.Maker,
	}
}

// Simulate runs one workload and returns the recorded run, statistics
// and liveness report. With cfg.Faults nil it uses the deterministic
// simulator; with a FaultPlan it runs on the live harness over a lossy
// network with reliable-transport recovery.
func Simulate(cfg SimConfig) (*SimResult, error) { return conformance.Run(cfg) }

// FaultSweep runs the workload under each fault plan (live harness),
// checking every run against pred (nil skips checking), and returns one
// cell per plan. See conformance.FaultMatrix.
func FaultSweep(cfg SimConfig, plans []FaultPlan, seeds int, pred *Predicate) ([]FaultCell, error) {
	return conformance.FaultMatrix(cfg, plans, seeds, pred)
}

// CrashSweep runs the workload under each crash plan (live harness),
// checking every run against pred (nil skips checking), and returns one
// cell per plan. Crash-restart plans must still deliver everything;
// crash-stop plans tolerate mail lost with the dead process. See
// conformance.CrashMatrix.
func CrashSweep(cfg SimConfig, plans []CrashPlan, seeds int, pred *Predicate) ([]CrashCell, error) {
	return conformance.CrashMatrix(cfg, plans, seeds, pred)
}

// ExploreConfig drives exhaustive schedule exploration: the workload is
// replayed under every possible network arrival order (small-scope model
// checking).
type ExploreConfig = dsim.ExploreConfig

// ExploreRequest is one user invocation in an exploration workload.
type ExploreRequest = dsim.Request

// Explore enumerates every arrival order of the workload, calling visit
// with each completed run. Returns the number of schedules visited.
func Explore(cfg ExploreConfig, visit func(*SimResult) bool) (int, error) {
	return dsim.Explore(cfg, visit)
}

// Exploration errors (see the internal/dsim package docs).
var (
	// ErrExploreLimit marks a truncated search: MaxRuns complete
	// schedules were visited, so the result is a sample, not a proof.
	ErrExploreLimit = dsim.ErrExploreLimit
	// ErrDivergentReplay reports a nondeterministic Maker or MakeHook:
	// replaying a schedule prefix made different choices than its
	// parent, so the schedule tree is ill-defined.
	ErrDivergentReplay = dsim.ErrDivergentReplay
)

// ExploreStats reports how an exploration covered the schedule space:
// distinct complete runs, interior states, replays performed, and how
// much the deduplication and commutativity reductions pruned.
type ExploreStats = dsim.ExploreStats

// ExploreWithStats is Explore returning the full search statistics.
func ExploreWithStats(cfg ExploreConfig, visit func(*SimResult) bool) (ExploreStats, error) {
	return dsim.ExploreWithStats(cfg, visit)
}

// Observability. The obs layer records causally stamped event timelines
// (invoke/send/receive/deliver, inhibition spans, transport faults,
// explorer expansions) and aggregate distributions. Attach a collector
// and registry to a SimConfig with WithTracer/WithMetrics, then export
// the records for Perfetto:
//
//	tr, met := msgorder.NewTraceCollector(), msgorder.NewMetricsRegistry()
//	res, err := msgorder.Simulate(cfg.WithTracer(tr).WithMetrics(met))
//	msgorder.WriteChromeTrace(f, tr.Records())
type (
	// Tracer receives structured trace records.
	Tracer = obs.Tracer
	// TraceRecord is one vector-clock-stamped trace event.
	TraceRecord = obs.Record
	// TraceOp identifies what a trace record describes.
	TraceOp = obs.Op
	// TraceCollector is an in-memory Tracer.
	TraceCollector = obs.Collector
	// MetricsRegistry aggregates counters, gauges and histograms.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a JSON-marshalable registry snapshot.
	MetricsSnapshot = obs.Snapshot
)

// NewTraceCollector returns an empty in-memory tracer.
func NewTraceCollector() *TraceCollector { return obs.NewCollector() }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WriteChromeTrace exports trace records as Chrome trace-event JSON
// (loadable in Perfetto and chrome://tracing, one track per process).
var WriteChromeTrace = obs.WriteChromeTrace

// WriteTraceNDJSON exports trace records as newline-delimited JSON.
var WriteTraceNDJSON = obs.WriteNDJSON

// ValidateChromeTrace structurally checks an exported Chrome trace:
// well-formed JSON, monotone per-track timestamps, and every deliver
// preceded by its send.
var ValidateChromeTrace = obs.ValidateChromeTrace

// EncodeRun serializes a user-view run to JSON.
func EncodeRun(r *Run) ([]byte, error) { return trace.EncodeUserView(r) }

// DecodeRun parses and revalidates a serialized user-view run.
func DecodeRun(data []byte) (*Run, error) { return trace.DecodeUserView(data) }

// Spec is a composite specification: a conjunction of forbidden
// predicates. Its protocol class is the maximum over components.
type Spec = spec.Spec

// NewSpec builds a composite specification.
func NewSpec(name string, preds ...*Predicate) (*Spec, error) {
	return spec.New(name, preds...)
}

// SynthPlan describes how GenerateProtocol implemented a specification.
type SynthPlan = synth.Plan

// GenerateProtocol compiles a forbidden predicate into an executing
// protocol (the companion-paper direction): the trivial protocol for
// vacuous specifications, a per-channel sequence protocol for
// same-channel patterns like FIFO and local flush, and full causal
// ordering for every other tagged specification. Specifications needing
// control messages or unimplementable ones return an error.
func GenerateProtocol(p *Predicate) (ProtocolMaker, *SynthPlan, error) {
	return synth.Generate(p)
}

// Lattice is the empirical inclusion lattice of specification sets over
// a bounded universe of runs.
type Lattice = lattice.Lattice

// LatticeConfig bounds the universe ComputeLattice enumerates.
type LatticeConfig = lattice.Config

// ComputeLattice evaluates the named specifications over a bounded
// universe and returns their inclusion structure (sizes, pairwise
// subset tests, Hasse edges).
func ComputeLattice(cfg LatticeConfig, specs map[string]*Predicate) (*Lattice, error) {
	return lattice.Compute(cfg, specs)
}

// Real-network runtime. A MeshNode hosts one process of a protocol
// over real TCP sockets: length-prefixed frames, seeded reconnect
// backoff, a handshake that refuses mismatched fingerprints, and the
// same reliable-transport and crash/recovery semantics as the
// in-memory harness. The cmd/mod daemon wraps one node per OS
// process; NetSweep closes the loop by asserting sim and mesh produce
// identical user views.
type (
	// MeshNode is one process of a protocol mesh over real TCP.
	MeshNode = netmesh.Node
	// MeshNodeConfig configures one mesh node (self, maker, mesh,
	// transport tuning, optional WAL).
	MeshNodeConfig = netmesh.NodeConfig
	// MeshConfig is the socket-layer part of a node config: the full
	// address table, the shared fingerprint, and optional fault
	// injection.
	MeshConfig = netmesh.MeshConfig
	// MeshCounters tallies socket-layer activity (dials, frames,
	// bytes, injected faults).
	MeshCounters = netmesh.Counters
	// NetProtocol names one protocol for NetSweep.
	NetProtocol = conformance.NetProtocol
	// NetSweepConfig shapes a cross-runtime sweep.
	NetSweepConfig = conformance.NetMatrixConfig
	// NetCell is one (protocol, disturbance) cell of a sweep.
	NetCell = conformance.NetCell
	// WALGroupCommit tunes group-commit batching of a file-backed
	// journal (max pending entries, flush window, per-flush fsync).
	WALGroupCommit = crash.GroupCommit
	// WALStats tallies a journal's appends against its file flushes;
	// Appends ≫ Flushes is group commit working.
	WALStats = crash.WALStats
)

// MeshFingerprint derives the handshake fingerprint nodes exchange;
// every node of one mesh must present the same value.
var MeshFingerprint = netmesh.Fingerprint

// NewMeshNode starts one mesh node: it binds its listener, dials its
// peers, and begins executing the protocol.
func NewMeshNode(cfg MeshNodeConfig) (*MeshNode, error) { return netmesh.NewNode(cfg) }

// NetSweep runs the cross-runtime conformance sweep: each protocol's
// seeded lockstep workload executes on the in-memory sim and on a
// loopback TCP mesh under clean, lossy, and crash-restart cells; each
// cell reports whether the user views matched byte for byte.
func NetSweep(cfg NetSweepConfig, protos []NetProtocol) ([]NetCell, error) {
	return conformance.NetMatrix(cfg, protos)
}

// Dynamic membership. A MemberTracker holds the epoch-numbered group
// view; joiners install a MemberCheckpoint captured from a departing
// member's WAL (snapshot + verified suffix replay) so the successor's
// user view splices byte-identically onto the departed incarnation's.
// A MemberEvictor turns sustained heartbeat silence into an
// administrative eviction. ChurnSweep closes the loop: every protocol
// across every membership operation under topology-shaped network
// environments (geo-latency zones, asymmetric one-way partitions,
// slow links — see the FaultPlan Zones/OneWay/SlowLinks fields).
type (
	// MemberView is one epoch-numbered membership view.
	MemberView = member.View
	// MemberTracker applies join/leave/evict transitions and numbers
	// the resulting views with monotonic epochs.
	MemberTracker = member.Tracker
	// MemberCheckpoint is a protocol-correct state-transfer artifact
	// captured from a WAL at an epoch boundary.
	MemberCheckpoint = member.Checkpoint
	// MemberEvictor watches a crash detector and administratively
	// evicts processes whose heartbeat silence outlasts its grace.
	MemberEvictor = member.Evictor
	// MemberEvictorConfig tunes the evictor's scan interval and grace.
	MemberEvictorConfig = member.EvictorConfig
	// StaleEpochError reports an operation pinned to a superseded
	// membership epoch.
	StaleEpochError = member.StaleEpochError
	// OneWayPartition is an asymmetric cut inside a FaultPlan: frames
	// From→To drop while the reverse direction flows.
	OneWayPartition = transport.OneWayPartition
	// SlowLink degrades one direction of one link inside a FaultPlan.
	SlowLink = transport.SlowLink
	// ChurnProtocol names one protocol for ChurnSweep.
	ChurnProtocol = conformance.ChurnProtocol
	// ChurnSweepConfig shapes the churn matrix.
	ChurnSweepConfig = conformance.ChurnConfig
	// ChurnCell is one (protocol, op, env) churn outcome.
	ChurnCell = conformance.ChurnCell
)

// NewMemberTracker seeds a tracker at epoch 0 with the initial members.
func NewMemberTracker(capacity int, initial []ProcID) *MemberTracker {
	return member.NewTracker(capacity, initial)
}

// ChurnOps lists the membership operations ChurnSweep exercises.
func ChurnOps() []string { return conformance.ChurnOps() }

// ChurnEnvs lists ChurnSweep's topology-shaped network environments.
func ChurnEnvs() []string { return conformance.ChurnEnvs() }

// ChurnSweep runs the membership-churn conformance matrix: each
// protocol executes on a loopback TCP mesh per (operation,
// environment) cell with one membership change mid-run, and the
// surviving members' user view is validated byte-for-byte against the
// in-memory sim reference.
func ChurnSweep(cfg ChurnSweepConfig, protos []ChurnProtocol) ([]ChurnCell, error) {
	return conformance.ChurnMatrix(cfg, protos)
}

// Multiplexed channels. A ChannelMux carries many logical channels —
// each with its own forbidden-predicate specification, classifier
// verdict, and minimal protocol witness — over the existing
// one-TCP-connection-per-peer-pair mesh. Channels are full protocol
// instances (own sequencing, cumulative acks, WAL namespace, crash
// recovery), so a tagless channel pays zero ordering overhead even
// while a logically synchronous channel signals on the same sockets,
// and per-channel outboxes keep a partitioned channel from head-of-
// line-blocking its siblings. MuxSweep closes the loop: every channel
// of a shared mesh must reproduce its standalone run's user view byte
// for byte.
type (
	// ChannelMux multiplexes logical channels over one mesh endpoint.
	ChannelMux = chanmux.Mux
	// ChannelMuxConfig configures a mux endpoint (self, mesh address
	// table, transport tuning, per-channel WAL directory).
	ChannelMuxConfig = chanmux.Config
	// ChannelSpec opens one channel: a name, an optional
	// specification, and an optional forced protocol.
	ChannelSpec = chanmux.Spec
	// Channel is one logical channel — a full protocol instance
	// multiplexed over the shared mesh.
	Channel = chanmux.Channel
	// ChannelInfo describes one open channel (name, wire ID, witness
	// protocol, spec, class).
	ChannelInfo = chanmux.Info
	// MuxCell is one (channel, disturbance) cell of a MuxSweep.
	MuxCell = conformance.MuxCell
)

// ErrUnknownChannel reports an operation on a channel the mux has not
// opened.
var ErrUnknownChannel = chanmux.ErrUnknownChannel

// NewChannelMux starts a multiplexed mesh endpoint; channels open (and
// close) independently afterwards via Open and CloseChannel.
func NewChannelMux(cfg ChannelMuxConfig) (*ChannelMux, error) { return chanmux.New(cfg) }

// MuxSweep runs the multi-tenant conformance sweep: every protocol
// becomes one channel on a shared loopback TCP mesh, the channels'
// seeded lockstep workloads interleave, and each channel's user view
// is diffed byte-for-byte against a standalone in-memory sim run —
// under clean, lossy, and crash-restart cells.
func MuxSweep(cfg NetSweepConfig, protos []NetProtocol) ([]MuxCell, error) {
	return conformance.MuxMatrix(cfg, protos)
}
