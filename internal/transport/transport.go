// Package transport is the reliable-delivery sublayer of the live
// harness (internal/sim). The paper's run model (axioms R1-R3) assumes
// every sent message is eventually received exactly once; a production
// network drops, duplicates, delays and partitions. This package closes
// the gap from both sides:
//
//   - Injector decides, per transmission, what a lossy network does to
//     it (deliver / drop / duplicate / delay), driven by a seeded
//     FaultPlan with per-fault rates and healing partitions.
//   - Reliable restores the paper's channel model above the faults:
//     every protocol wire is wrapped in a sequenced Envelope, the
//     receiver acknowledges and deduplicates, and the sender
//     retransmits unacked envelopes on a timeout with exponential
//     backoff (capped).
//
// Protocols therefore still see reliable, exactly-once (but freely
// reordering) channels, while the network below misbehaves at
// configurable rates. The counters on both halves (retransmits, dups
// dropped, faults injected) surface through protocol.Stats.
package transport

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/obs"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
)

// FaultPlan configures the fault injector. Rates are probabilities in
// [0, 1); the injector clamps them so that their sum stays below one
// (a transmission suffers at most one fault per hop attempt). The zero
// plan injects nothing.
type FaultPlan struct {
	// DropRate is the probability a transmission is silently discarded.
	DropRate float64
	// DupRate is the probability a transmission is delivered AND a copy
	// is put back in flight.
	DupRate float64
	// DelayJitter is the probability a transmission is pushed back into
	// the in-flight set instead of being released (extra reordering and
	// latency).
	DelayJitter float64
	// Partitions are network cuts: transmissions crossing an active cut
	// are dropped until the cut's heal budget is exhausted.
	Partitions []Partition
	// OneWay are asymmetric cuts: only transmissions travelling in the
	// cut's From→To direction are dropped; the reverse direction flows.
	// This is the topology shape that fools heartbeat detectors — the
	// mute side still hears everyone, everyone else suspects it.
	OneWay []OneWayPartition
	// Zones assigns processes to geo-latency tiers: transmissions whose
	// endpoints sit in different zones suffer the extra CrossZoneDelay /
	// CrossZoneDrop probabilities on top of the base rates. Processes
	// not listed in any zone share one implicit zone of their own.
	Zones [][]event.ProcID
	// CrossZoneDelay is the extra probability a cross-zone transmission
	// is pushed back into the in-flight set (geo latency as reordering).
	CrossZoneDelay float64
	// CrossZoneDrop is the extra probability a cross-zone transmission
	// is discarded (long-haul loss).
	CrossZoneDrop float64
	// SlowLinks name individual degraded peer pairs (both directions):
	// each carries its own delay/drop probabilities, independent of
	// zones — a flaky cable inside an otherwise healthy tier.
	SlowLinks []SlowLink
	// Seed drives the injector's RNG (default 1).
	Seed int64
}

// Enabled reports whether the plan injects any fault at all.
func (p FaultPlan) Enabled() bool {
	return p.DropRate > 0 || p.DupRate > 0 || p.DelayJitter > 0 || len(p.Partitions) > 0 ||
		len(p.OneWay) > 0 || len(p.SlowLinks) > 0 ||
		(len(p.Zones) > 0 && (p.CrossZoneDelay > 0 || p.CrossZoneDrop > 0))
}

// Partition is a temporary network cut between two sets of processes.
// Every transmission crossing the cut (in either direction) is dropped
// and decrements the heal budget; when the budget hits zero the cut
// heals permanently. Retransmissions burn the budget down, so any
// finite budget preserves liveness.
type Partition struct {
	// A and B are the two sides of the cut.
	A, B []event.ProcID
	// Heal is the number of crossing transmissions dropped before the
	// partition heals (default 16).
	Heal int
}

// OneWayPartition is an asymmetric network cut: transmissions from a
// process in From to a process in To are dropped; the reverse direction
// is untouched. Heal is the number of dropped transmissions before the
// cut heals (0 = defaultHeal); a negative Heal never heals — the shape
// needed to model a persistently unreachable process that a failure
// detector must eventually evict.
type OneWayPartition struct {
	// From and To are the muted direction's endpoints.
	From, To []event.ProcID
	// Heal is the drop budget (0 = default; negative = permanent).
	Heal int
}

// SlowLink degrades the channel between one pair of processes, in both
// directions, with its own delay/drop probabilities on top of the base
// plan rates.
type SlowLink struct {
	// A and B are the degraded pair.
	A, B event.ProcID
	// DelayProb is the extra probability a transmission on this link is
	// pushed back into the in-flight set.
	DelayProb float64
	// DropProb is the extra probability a transmission on this link is
	// discarded.
	DropProb float64
}

// Action is the injector's verdict for one transmission.
type Action int

// Injector verdicts.
const (
	Deliver   Action = iota // release to the destination
	Drop                    // discard silently
	Duplicate               // deliver and keep a copy in flight
	Delay                   // push back into the in-flight set
)

// FaultCounters tallies injected faults by kind.
type FaultCounters struct {
	Drops, Dups, Delays, PartitionDrops int
	// OneWayDrops counts transmissions muted by an asymmetric cut.
	OneWayDrops int
	// ZoneFaults counts faults charged to cross-zone geo penalties.
	ZoneFaults int
	// LinkFaults counts faults charged to a named slow link.
	LinkFaults int
}

// Total returns the number of faults injected.
func (c FaultCounters) Total() int {
	return c.Drops + c.Dups + c.Delays + c.PartitionDrops +
		c.OneWayDrops + c.ZoneFaults + c.LinkFaults
}

// Injector is a seeded, concurrency-safe fault source.
type Injector struct {
	mu     sync.Mutex
	plan   FaultPlan
	rng    *rand.Rand
	parts  []partitionState
	oneway []onewayState
	zone   map[event.ProcID]int
	links  map[chanKey]SlowLink
	counts FaultCounters
	sink   *obs.Sink
}

// Observe attaches an observability sink: every injected fault emits a
// trace record and bumps a counter. A nil sink (the default) disables
// this.
func (in *Injector) Observe(s *obs.Sink) {
	in.mu.Lock()
	in.sink = s
	in.mu.Unlock()
}

// record emits one injected fault into the sink. Called with in.mu held;
// the sink takes its own locks, never in.mu, so there is no cycle.
func (in *Injector) record(op obs.Op, name string, from, to event.ProcID) {
	s := in.sink
	if !s.Enabled() {
		return
	}
	s.Count("transport.faults."+name, 1)
	s.Trace(obs.Record{
		Step: s.Step(),
		Proc: from,
		Op:   op,
		Msg:  obs.NoMsg,
		Note: fmt.Sprintf("P%d->P%d", from, to),
	})
}

type partitionState struct {
	a, b   map[event.ProcID]bool
	budget int
}

// onewayState tracks an asymmetric cut; budget < 0 means permanent.
// chAny cuts mute every multiplexed channel (the legacy shape); a
// channel-scoped cut (chAny false) mutes only transmissions stamped
// with its channel ID, so one logical channel can be partitioned while
// its siblings on the same connection keep flowing.
type onewayState struct {
	from, to map[event.ProcID]bool
	budget   int
	ch       uint32
	chAny    bool
}

// maxFaultRate bounds the total fault probability so the adversary's
// release loop terminates (a plan of all-drops would spin forever).
const maxFaultRate = 0.95

// defaultHeal is a partition's drop budget when Heal is zero.
const defaultHeal = 16

// NewInjector builds an injector for the plan. Rates are scaled down
// proportionally if their sum exceeds maxFaultRate.
func NewInjector(plan FaultPlan) *Injector {
	if sum := plan.DropRate + plan.DupRate + plan.DelayJitter; sum > maxFaultRate {
		scale := maxFaultRate / sum
		plan.DropRate *= scale
		plan.DupRate *= scale
		plan.DelayJitter *= scale
	}
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	in := &Injector{plan: plan, rng: rand.New(rand.NewSource(seed))}
	for _, p := range plan.Partitions {
		st := partitionState{
			a:      make(map[event.ProcID]bool, len(p.A)),
			b:      make(map[event.ProcID]bool, len(p.B)),
			budget: p.Heal,
		}
		if st.budget <= 0 {
			st.budget = defaultHeal
		}
		for _, id := range p.A {
			st.a[id] = true
		}
		for _, id := range p.B {
			st.b[id] = true
		}
		in.parts = append(in.parts, st)
	}
	for _, p := range plan.OneWay {
		in.oneway = append(in.oneway, newOnewayState(p.From, p.To, p.Heal))
	}
	if len(plan.Zones) > 0 {
		in.zone = make(map[event.ProcID]int)
		for z, procs := range plan.Zones {
			for _, id := range procs {
				in.zone[id] = z
			}
		}
	}
	if len(plan.SlowLinks) > 0 {
		in.links = make(map[chanKey]SlowLink, 2*len(plan.SlowLinks))
		for _, l := range plan.SlowLinks {
			in.links[chanKey{l.A, l.B}] = l
			in.links[chanKey{l.B, l.A}] = l
		}
	}
	return in
}

// newOnewayState builds the runtime state for an asymmetric cut: a zero
// heal budget takes the default, a negative one means the cut never
// heals.
func newOnewayState(from, to []event.ProcID, heal int) onewayState {
	st := onewayState{
		from:   make(map[event.ProcID]bool, len(from)),
		to:     make(map[event.ProcID]bool, len(to)),
		budget: heal,
		chAny:  true,
	}
	if st.budget == 0 {
		st.budget = defaultHeal
	}
	for _, id := range from {
		st.from[id] = true
	}
	for _, id := range to {
		st.to[id] = true
	}
	return st
}

// CutOneWay arms an asymmetric cut at runtime: transmissions from a
// process in from to a process in to are dropped until the heal budget
// is exhausted (heal == 0 takes the default budget; heal < 0 never
// heals). The churn harness uses this to mute a process mid-run and
// watch the survivors' failure detectors converge on exactly it.
func (in *Injector) CutOneWay(from, to []event.ProcID, heal int) {
	in.mu.Lock()
	in.oneway = append(in.oneway, newOnewayState(from, to, heal))
	in.mu.Unlock()
}

// CutChanOneWay arms an asymmetric cut scoped to one multiplexed
// channel: only transmissions stamped with channel ID ch (and
// travelling from → to) are dropped; sibling channels sharing the same
// connection are untouched. This is the fault shape behind the
// head-of-line-blocking regression tests — a partitioned channel must
// not stall a healthy one. Heal semantics match CutOneWay.
func (in *Injector) CutChanOneWay(from, to []event.ProcID, ch uint32, heal int) {
	st := newOnewayState(from, to, heal)
	st.ch, st.chAny = ch, false
	in.mu.Lock()
	in.oneway = append(in.oneway, st)
	in.mu.Unlock()
}

// HealOneWay disarms every asymmetric cut, healed or not, restoring
// full bidirectional connectivity (modulo the plan's probabilistic
// faults).
func (in *Injector) HealOneWay() {
	in.mu.Lock()
	in.oneway = nil
	in.mu.Unlock()
}

// Decide returns the network's action for a transmission from -> to on
// the default (un-multiplexed) channel. Channel-scoped cuts armed for a
// non-zero channel ID never match here.
func (in *Injector) Decide(from, to event.ProcID) Action {
	return in.DecideChan(from, to, 0)
}

// DecideChan returns the network's action for a transmission from → to
// stamped with multiplexed channel ID ch. Legacy cuts (FaultPlan.OneWay,
// CutOneWay, Partitions) apply to every channel; CutChanOneWay cuts
// apply only when ch matches. The probabilistic faults (drop, dup,
// delay, zones, slow links) are channel-blind — a lossy wire loses
// frames regardless of what they multiplex.
func (in *Injector) DecideChan(from, to event.ProcID, ch uint32) Action {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.parts {
		p := &in.parts[i]
		if p.budget > 0 && ((p.a[from] && p.b[to]) || (p.b[from] && p.a[to])) {
			p.budget--
			in.counts.PartitionDrops++
			in.record(obs.OpPartitionDrop, "partition", from, to)
			return Drop
		}
	}
	for i := range in.oneway {
		p := &in.oneway[i]
		if p.budget != 0 && p.from[from] && p.to[to] && (p.chAny || p.ch == ch) {
			if p.budget > 0 {
				p.budget--
			}
			in.counts.OneWayDrops++
			in.record(obs.OpPartitionDrop, "oneway", from, to)
			return Drop
		}
	}
	if l, ok := in.links[chanKey{from, to}]; ok {
		r := in.rng.Float64()
		if r < l.DropProb {
			in.counts.LinkFaults++
			in.record(obs.OpDrop, "slowlink", from, to)
			return Drop
		}
		if r < l.DropProb+l.DelayProb {
			in.counts.LinkFaults++
			in.record(obs.OpDelay, "slowlink", from, to)
			return Delay
		}
	}
	if in.zone != nil && in.crossZone(from, to) {
		r := in.rng.Float64()
		if r < in.plan.CrossZoneDrop {
			in.counts.ZoneFaults++
			in.record(obs.OpDrop, "zone", from, to)
			return Drop
		}
		if r < in.plan.CrossZoneDrop+in.plan.CrossZoneDelay {
			in.counts.ZoneFaults++
			in.record(obs.OpDelay, "zone", from, to)
			return Delay
		}
	}
	r := in.rng.Float64()
	if r < in.plan.DropRate {
		in.counts.Drops++
		in.record(obs.OpDrop, "drop", from, to)
		return Drop
	}
	r -= in.plan.DropRate
	if r < in.plan.DupRate {
		in.counts.Dups++
		in.record(obs.OpDup, "dup", from, to)
		return Duplicate
	}
	r -= in.plan.DupRate
	if r < in.plan.DelayJitter {
		in.counts.Delays++
		in.record(obs.OpDelay, "delay", from, to)
		return Delay
	}
	return Deliver
}

// crossZone reports whether the endpoints sit in different geo zones.
// Processes not listed in any zone share one implicit zone.
func (in *Injector) crossZone(from, to event.ProcID) bool {
	za, oka := in.zone[from]
	zb, okb := in.zone[to]
	if !oka {
		za = -1
	}
	if !okb {
		zb = -1
	}
	return za != zb
}

// Counters returns a snapshot of the injected-fault tallies.
func (in *Injector) Counters() FaultCounters {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

// Kind distinguishes data envelopes from acknowledgements and
// liveness heartbeats.
type Kind uint8

// Envelope kinds. Beat envelopes are liveness heartbeats: unsequenced,
// unacknowledged, never retransmitted — they ride the same lossy
// network as data (so a one-way cut silences them in exactly one
// direction) but bypass the Reliable sublayer entirely.
const (
	Data Kind = iota + 1
	Ack
	Beat
)

// Envelope is one transport-layer transmission: a protocol wire wrapped
// with a per-channel sequence number (Data), or its acknowledgement
// (Ack, addressed back to the data sender and carrying the same Seq).
type Envelope struct {
	// Src and Dst are the transmission endpoints of THIS envelope
	// (reversed for acks relative to the data they acknowledge).
	Src, Dst event.ProcID
	Kind     Kind
	// Chan is the logical multiplexed channel this envelope belongs to.
	// Zero is the default (un-multiplexed) channel, so every legacy
	// single-protocol deployment keeps its wire behavior unchanged. A
	// channel-multiplexing host stamps its channel ID here on every
	// outbound envelope (data, ack, retransmission) and demultiplexes
	// arrivals by it; each channel runs its own Reliable instance, so
	// sequence numbers, cumulative acks and dedup state are all
	// channel-scoped without any key widening inside Reliable itself.
	Chan uint32
	// Seq is the sequence number on the data channel Src->Dst (for
	// acks: Dst->Src). Sequencing identifies envelopes for ack matching
	// and dedup; it does NOT impose FIFO delivery — the network above
	// still reorders freely, as the paper's model allows.
	Seq uint64
	// Cum is the pipelined-acknowledgement mark (Ack only): every data
	// envelope on the acked channel with sequence number ≤ Cum is
	// acknowledged by this one envelope, in addition to the exact Seq.
	// Zero means exact-seq acknowledgement only (the legacy contract),
	// so plain AckFor acks keep working unchanged.
	Cum uint64
	// Attempt counts retransmissions of this envelope (0 = original).
	Attempt int
	// Wire is the wrapped protocol payload (Data only).
	Wire protocol.Wire
}

// AckFor builds the exact-seq acknowledgement for a data envelope.
// The batched mesh path uses Reliable.CumAckFor instead, which lets a
// single ack cover a whole contiguous batch.
func AckFor(e Envelope) Envelope {
	return Envelope{Src: e.Dst, Dst: e.Src, Kind: Ack, Seq: e.Seq}
}

// Config tunes the retransmission engine.
type Config struct {
	// RTO is the initial retransmission timeout (default 3ms).
	RTO time.Duration
	// MaxRTO caps the exponential backoff (default 48ms).
	MaxRTO time.Duration
	// Tick is the retransmit scan interval (default 1ms).
	Tick time.Duration
	// Obs, when non-nil, receives retransmission trace records and the
	// attempt/backoff distributions.
	Obs *obs.Sink
}

func (c Config) withDefaults() Config {
	if c.RTO <= 0 {
		c.RTO = 3 * time.Millisecond
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 48 * time.Millisecond
	}
	if c.Tick <= 0 {
		c.Tick = time.Millisecond
	}
	return c
}

// Counters tallies the reliable sublayer's work.
type Counters struct {
	// Sent counts data envelopes originated (one per protocol wire).
	Sent int
	// Retransmits counts timeout-driven resends.
	Retransmits int
	// DupsDropped counts duplicate data envelopes absorbed by the
	// receiver-side dedup.
	DupsDropped int
	// AcksReceived counts acknowledgements processed by senders.
	AcksReceived int
	// CumAcked counts pending envelopes cleared by the cumulative part
	// of a pipelined ack — retransmissions a batch ack made unnecessary
	// beyond its exact Seq match.
	CumAcked int
	// IdleSkips counts the times the retransmission loop parked because
	// no envelope was pending: instead of scanning an empty table every
	// Tick, it sleeps until the next Wrap wakes it. An idle mesh
	// therefore burns no timer CPU at all.
	IdleSkips int
}

// Add accumulates other into c.
func (c *Counters) Add(o Counters) {
	c.Sent += o.Sent
	c.Retransmits += o.Retransmits
	c.DupsDropped += o.DupsDropped
	c.AcksReceived += o.AcksReceived
	c.CumAcked += o.CumAcked
	c.IdleSkips += o.IdleSkips
}

type chanKey [2]event.ProcID

type pendKey struct {
	ch  chanKey
	seq uint64
}

// pendingTx is one unacknowledged data envelope. The records live in a
// slab (Reliable.txs) that the pending table indexes: a retired slot is
// zeroed, so it pins no wire payload, and goes on the free list for the
// next Wrap, so a warm send path allocates no record.
type pendingTx struct {
	env      Envelope
	deadline time.Time
	attempt  int
}

// Reliable is the exactly-once delivery engine for one network: it
// sequences outgoing wires, retransmits unacked envelopes, and
// deduplicates arrivals. Safe for concurrent use. The send callback
// reinjects retransmissions into the network; it must not block
// forever after the network shuts down.
type Reliable struct {
	cfg  Config
	send func(Envelope)

	mu   sync.Mutex
	next map[chanKey]uint64
	// pending maps each unacknowledged envelope to its slot in txs;
	// free lists the retired slots Wrap fills first.
	pending map[pendKey]int32
	txs     []pendingTx
	free    []int32
	// acked is the sender-side low-water mark per channel: the highest
	// cumulative mark an Ack has processed. Nothing pending on the
	// channel has a sequence number at or below it, so the next
	// cumulative ack only has to look above it.
	acked map[chanKey]uint64
	seen  map[chanKey]map[uint64]struct{}
	// cum is the receiver-side high-water mark per channel: every seq
	// ≤ cum[ch] has been accepted. Accept advances it over contiguous
	// runs and prunes the seen set behind it, which both bounds dedup
	// memory on the steady path and is what CumAckFor advertises.
	cum      map[chanKey]uint64
	down     map[event.ProcID]bool
	counts   Counters
	progress uint64

	// snap, chans, seqs and pks are SnapshotState's encoding and sort
	// scratch, kept for the next call.
	snap  snapio.Writer
	chans []chanKey
	seqs  []uint64
	pks   []pendKey

	// wake is signalled (buffered, capacity one) when pending goes from
	// empty to non-empty, so the parked retransmission loop resumes.
	wake chan struct{}

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewReliable starts a reliable sublayer; Close must be called to stop
// its retransmission loop.
func NewReliable(cfg Config, send func(Envelope)) *Reliable {
	r := &Reliable{
		cfg:     cfg.withDefaults(),
		send:    send,
		next:    make(map[chanKey]uint64),
		pending: make(map[pendKey]int32),
		acked:   make(map[chanKey]uint64),
		seen:    make(map[chanKey]map[uint64]struct{}),
		cum:     make(map[chanKey]uint64),
		down:    make(map[event.ProcID]bool),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	r.wg.Add(1)
	go r.loop()
	return r
}

// Wrap sequences a wire into a data envelope and registers it for
// retransmission until acknowledged.
func (r *Reliable) Wrap(from, to event.ProcID, w protocol.Wire) Envelope {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := chanKey{from, to}
	r.next[ch]++
	env := Envelope{Src: from, Dst: to, Kind: Data, Seq: r.next[ch], Wire: w}
	wasIdle := len(r.pending) == 0
	var i int32
	if n := len(r.free); n > 0 {
		i, r.free = r.free[n-1], r.free[:n-1]
	} else {
		i = int32(len(r.txs))
		r.txs = append(r.txs, pendingTx{})
	}
	r.txs[i] = pendingTx{env: env, deadline: time.Now().Add(r.cfg.RTO)}
	r.pending[pendKey{ch, env.Seq}] = i
	r.counts.Sent++
	r.progress++
	if wasIdle {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
	return env
}

// Ack processes an acknowledgement arriving back at the data sender,
// cancelling its retransmission. A pipelined ack (Cum > 0) also clears
// every pending envelope on the channel with seq ≤ Cum, so one ack can
// retire a whole batch. Idempotent. The cumulative part costs what it
// retires: it probes only the sequence numbers between the channel's
// previous mark and Cum, and walks the whole table only when that range
// is longer than the table (the first ack after RestoreState).
func (r *Reliable) Ack(a Envelope) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := chanKey{a.Dst, a.Src}
	r.retire(pendKey{ch, a.Seq})
	// Nothing above next[ch] was ever sent, so a mark beyond it retires
	// no more than next[ch] does — and must not outrun later Wraps.
	cum := min(a.Cum, r.next[ch])
	if low := r.acked[ch]; cum > low {
		before := len(r.pending)
		if cum-low > uint64(before) {
			for k := range r.pending {
				if k.ch == ch && k.seq <= cum {
					r.retire(k)
				}
			}
		} else {
			for seq := low + 1; seq <= cum; seq++ {
				r.retire(pendKey{ch, seq})
			}
		}
		r.counts.CumAcked += before - len(r.pending)
		r.acked[ch] = cum
	}
	r.counts.AcksReceived++
	r.progress++
}

// retire drops k from the pending table, if present, and hands its
// slot back zeroed. Caller holds mu.
func (r *Reliable) retire(k pendKey) {
	i, ok := r.pending[k]
	if !ok {
		return
	}
	delete(r.pending, k)
	r.txs[i] = pendingTx{}
	r.free = append(r.free, i)
}

// Accept runs receiver-side dedup on an arriving data envelope and
// reports whether this is its first copy (deliver to the protocol) or
// a duplicate (absorb). The caller acknowledges in both cases. On the
// steady (in-order) path Accept advances the channel's contiguous
// high-water mark and prunes the seen set behind it, so dedup state
// stays O(gaps) rather than O(messages ever received).
func (r *Reliable) Accept(e Envelope) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := chanKey{e.Src, e.Dst}
	if e.Seq <= r.cum[ch] {
		r.counts.DupsDropped++
		r.progress++
		return false
	}
	s := r.seen[ch]
	if s == nil {
		s = make(map[uint64]struct{})
		r.seen[ch] = s
	}
	if _, dup := s[e.Seq]; dup {
		r.counts.DupsDropped++
		r.progress++
		return false
	}
	s[e.Seq] = struct{}{}
	for {
		next := r.cum[ch] + 1
		if _, ok := s[next]; !ok {
			break
		}
		delete(s, next)
		r.cum[ch] = next
	}
	r.progress++
	return true
}

// CumAckFor builds the pipelined acknowledgement for a data envelope
// arriving at this (receiver-side) Reliable: exact Seq plus the
// channel's contiguous high-water mark in Cum, so the single ack
// retires every in-order envelope of the batch it closes.
func (r *Reliable) CumAckFor(e Envelope) Envelope {
	r.mu.Lock()
	cum := r.cum[chanKey{e.Src, e.Dst}]
	r.mu.Unlock()
	return Envelope{Src: e.Dst, Dst: e.Src, Kind: Ack, Seq: e.Seq, Cum: cum}
}

// CumFor returns the receiver-side contiguous high-water mark of the
// channel a data envelope arrived on: every sequence number ≤ CumFor(e)
// has been accepted here. The batched receiver uses it to skip exact
// acks the cumulative ack already covers.
func (r *Reliable) CumFor(e Envelope) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cum[chanKey{e.Src, e.Dst}]
}

// PeerDown pauses retransmission towards p: the harness knows p has
// crashed, so resending into its dead mailbox only burns backoff.
// Pending envelopes are kept (with their deadlines frozen, not backed
// off) so a later PeerUp resumes exactly where the channel left off —
// sequence numbers and receiver dedup state are untouched, which keeps
// exactly-once delivery correct across a restart.
func (r *Reliable) PeerDown(p event.ProcID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.down[p] = true
	r.cfg.Obs.Count("transport.peer.pauses", 1)
}

// PeerUp resumes retransmission towards p after a restart. Every
// pending envelope addressed to p becomes due immediately so recovery
// is not stalled by deadlines set before the crash.
func (r *Reliable) PeerUp(p event.ProcID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.down[p] {
		return
	}
	delete(r.down, p)
	now := time.Now()
	for k, i := range r.pending {
		if k.ch[1] == p {
			r.txs[i].deadline = now
		}
	}
	r.progress++
	r.cfg.Obs.Count("transport.peer.resumes", 1)
}

// CancelTo abandons all pending envelopes addressed to p (the harness
// knows p has crash-stopped and will never ack). It returns the number
// of cancelled envelopes that p had never accepted — the ones whose
// payload is now lost for good, as opposed to accepted-but-unacked
// envelopes whose work already happened.
func (r *Reliable) CancelTo(p event.ProcID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	lost := 0
	for k := range r.pending {
		if k.ch[1] != p {
			continue
		}
		_, inSeen := r.seen[k.ch][k.seq]
		if !inSeen && k.seq > r.cum[k.ch] {
			lost++
		}
		r.retire(k)
	}
	r.progress++
	return lost
}

// MarkAccepted replays receiver-side acceptance of sequence number seq
// on the channel src->dst without delivering anything: the journal says
// the wire was already accepted and handled in a previous incarnation,
// so dedup state must reflect it or a retransmission would be re-
// admitted as fresh (duplicate delivery) after a durable restart. The
// contiguous high-water mark advances and the seen set is pruned
// exactly as a live Accept would.
func (r *Reliable) MarkAccepted(src, dst event.ProcID, seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := chanKey{src, dst}
	if seq <= r.cum[ch] {
		return
	}
	s := r.seen[ch]
	if s == nil {
		s = make(map[uint64]struct{})
		r.seen[ch] = s
	}
	if _, dup := s[seq]; dup {
		return
	}
	s[seq] = struct{}{}
	for {
		next := r.cum[ch] + 1
		if _, ok := s[next]; !ok {
			break
		}
		delete(s, next)
		r.cum[ch] = next
	}
}

// SnapshotState returns a deterministic encoding of the sublayer's
// durable state: per-channel sender sequence counters, receiver
// high-water marks and seen-set gaps, and the pending (unacknowledged)
// envelopes with their full wire payloads. Equal states always encode
// to equal bytes (all traversals are sorted), so checkpoints can be
// compared byte-for-byte. Counters, deadlines and peer-down marks are
// transient and excluded. The encoding and its sort scratch are kept
// for the next call, so a warm snapshot allocates nothing: the returned
// bytes belong to the Reliable and stay valid until the next
// SnapshotState, and a caller that keeps them must copy them.
func (r *Reliable) SnapshotState() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := &r.snap
	w.Reset()
	w.Byte(stateVersion)
	r.writeChanCounts(r.next)
	r.writeChanCounts(r.cum)
	r.chans = r.chans[:0]
	for ch, s := range r.seen {
		if len(s) > 0 {
			r.chans = append(r.chans, ch)
		}
	}
	sortChans(r.chans)
	w.Int(len(r.chans))
	for _, ch := range r.chans {
		r.seqs = r.seqs[:0]
		for seq := range r.seen[ch] {
			r.seqs = append(r.seqs, seq)
		}
		slices.Sort(r.seqs)
		w.Int(int(ch[0]))
		w.Int(int(ch[1]))
		w.Int(len(r.seqs))
		for _, seq := range r.seqs {
			w.U64(seq)
		}
	}
	r.pks = r.pks[:0]
	for k := range r.pending {
		r.pks = append(r.pks, k)
	}
	slices.SortFunc(r.pks, func(a, b pendKey) int {
		return cmp.Or(slices.Compare(a.ch[:], b.ch[:]), cmp.Compare(a.seq, b.seq))
	})
	w.Int(len(r.pks))
	for _, k := range r.pks {
		tx := &r.txs[r.pending[k]]
		w.Int(int(tx.env.Src))
		w.Int(int(tx.env.Dst))
		w.U64(tx.env.Seq)
		w.Int(tx.attempt)
		appendWireState(w, tx.env.Wire)
	}
	return w.Out()
}

// writeChanCounts encodes a per-channel counter map in channel order.
// Caller holds mu.
func (r *Reliable) writeChanCounts(m map[chanKey]uint64) {
	r.chans = r.chans[:0]
	for ch := range m {
		r.chans = append(r.chans, ch)
	}
	sortChans(r.chans)
	r.snap.Int(len(r.chans))
	for _, ch := range r.chans {
		r.snap.Int(int(ch[0]))
		r.snap.Int(int(ch[1]))
		r.snap.U64(m[ch])
	}
}

// RestoreState rebuilds the durable state captured by SnapshotState
// onto this Reliable, replacing whatever it held. Restored pending
// envelopes become due immediately, so the retransmission loop re-sends
// them right away — a crash between Wrap and the first transmission
// can no longer strand a wire forever.
func (r *Reliable) RestoreState(b []byte) error {
	rd := snapio.NewReader(b)
	if v := rd.Byte(); v != stateVersion && rd.Err() == nil {
		return fmt.Errorf("transport: unknown state version %d", v)
	}
	next := make(map[chanKey]uint64)
	for n := rd.Int(); n > 0 && rd.Err() == nil; n-- {
		ch := chanKey{event.ProcID(rd.Int()), event.ProcID(rd.Int())}
		next[ch] = rd.U64()
	}
	cum := make(map[chanKey]uint64)
	for n := rd.Int(); n > 0 && rd.Err() == nil; n-- {
		ch := chanKey{event.ProcID(rd.Int()), event.ProcID(rd.Int())}
		cum[ch] = rd.U64()
	}
	seen := make(map[chanKey]map[uint64]struct{})
	for n := rd.Int(); n > 0 && rd.Err() == nil; n-- {
		ch := chanKey{event.ProcID(rd.Int()), event.ProcID(rd.Int())}
		s := make(map[uint64]struct{})
		for k := rd.Int(); k > 0 && rd.Err() == nil; k-- {
			s[rd.U64()] = struct{}{}
		}
		seen[ch] = s
	}
	now := time.Now()
	pending := make(map[pendKey]int32)
	var txs []pendingTx
	for n := rd.Int(); n > 0 && rd.Err() == nil; n-- {
		env := Envelope{
			Src:  event.ProcID(rd.Int()),
			Dst:  event.ProcID(rd.Int()),
			Kind: Data,
			Seq:  rd.U64(),
		}
		attempt := rd.Int()
		env.Wire = readWireState(rd)
		env.Attempt = attempt
		tx := pendingTx{env: env, deadline: now, attempt: attempt}
		k := pendKey{chanKey{env.Src, env.Dst}, env.Seq}
		if i, dup := pending[k]; dup {
			txs[i] = tx // a repeated key keeps the last record, as a map store would
			continue
		}
		pending[k] = int32(len(txs))
		txs = append(txs, tx)
	}
	if err := rd.Close(); err != nil {
		return fmt.Errorf("transport: corrupt state snapshot: %w", err)
	}
	r.mu.Lock()
	r.next = next
	r.cum = cum
	r.seen = seen
	wasIdle := len(r.pending) == 0
	r.pending, r.txs, r.free = pending, txs, r.free[:0]
	clear(r.acked) // the restored table may hold seqs the old marks had passed
	r.progress++
	if wasIdle && len(pending) > 0 {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
	r.mu.Unlock()
	return nil
}

// stateVersion tags the SnapshotState encoding.
const stateVersion = 1

// sortChans orders channel keys lexicographically by (src, dst).
func sortChans(ks []chanKey) {
	slices.SortFunc(ks, func(a, b chanKey) int { return slices.Compare(a[:], b[:]) })
}

// appendWireState encodes a protocol wire for the state snapshot.
func appendWireState(w *snapio.Writer, wire protocol.Wire) {
	w.Int(int(wire.From))
	w.Int(int(wire.To))
	w.Byte(byte(wire.Kind))
	w.Byte(wire.Ctrl)
	w.Int(int(wire.Msg))
	w.Int(int(wire.Color))
	w.U64(uint64(wire.Key))
	w.Bytes(wire.Tag)
	w.Int(len(wire.VC))
	for _, v := range wire.VC {
		w.U64(v)
	}
}

// readWireState decodes a protocol wire from the state snapshot.
func readWireState(rd *snapio.Reader) protocol.Wire {
	wire := protocol.Wire{
		From: event.ProcID(rd.Int()),
		To:   event.ProcID(rd.Int()),
		Kind: protocol.WireKind(rd.Byte()),
		Ctrl: rd.Byte(),
		Msg:  event.MsgID(rd.Int()),
	}
	wire.Color = event.Color(rd.Int())
	wire.Key = event.Key(rd.U64())
	wire.Tag = rd.Bytes()
	if n := rd.Int(); n > 0 && rd.Err() == nil {
		wire.VC = make([]uint64, n)
		for i := range wire.VC {
			wire.VC[i] = rd.U64()
		}
	}
	return wire
}

// Pending returns the number of unacknowledged data envelopes.
func (r *Reliable) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// Counters returns a snapshot of the sublayer's tallies.
func (r *Reliable) Counters() Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts
}

// Progress returns a monotone counter that advances on every transport
// event (send, retransmit, ack, accept, dup). The harness's stall
// detector uses it to distinguish "still retransmitting" from
// "deadlocked".
func (r *Reliable) Progress() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.progress
}

// Close stops the retransmission loop and waits for it to exit.
func (r *Reliable) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// loop scans pending envelopes and resends overdue ones with
// exponential backoff. While nothing is pending it parks on the wake
// channel with the ticker stopped — zero timer work on an idle mesh —
// and Wrap's empty→non-empty transition resumes it.
func (r *Reliable) loop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.Tick)
	defer t.Stop()
	// due and backoffs are the resend list of one tick, kept across ticks.
	var due []Envelope
	var backoffs []time.Duration
	for {
		r.mu.Lock()
		idle := len(r.pending) == 0
		if idle {
			r.counts.IdleSkips++
		}
		r.mu.Unlock()
		if idle {
			r.cfg.Obs.Count("transport.retransmit.idle_skips", 1)
			t.Stop()
			select {
			case <-r.stop:
				return
			case <-r.wake:
			}
			select { // drop a tick buffered before Stop took effect
			case <-t.C:
			default:
			}
			t.Reset(r.cfg.Tick)
			continue
		}
		select {
		case <-r.stop:
			return
		case now := <-t.C:
			due, backoffs = due[:0], backoffs[:0]
			r.mu.Lock()
			for _, i := range r.pending {
				p := &r.txs[i]
				if r.down[p.env.Dst] {
					continue
				}
				if now.After(p.deadline) {
					p.attempt++
					p.env.Attempt = p.attempt
					backoff := r.rto(p.attempt)
					p.deadline = now.Add(backoff)
					r.counts.Retransmits++
					r.progress++
					due = append(due, p.env)
					backoffs = append(backoffs, backoff)
				}
			}
			r.mu.Unlock()
			for i, e := range due {
				r.observeRetransmit(e, backoffs[i])
			}
			// Resend outside the lock: the network injection path may
			// block until the adversary picks the envelope up.
			for _, e := range due {
				r.send(e)
			}
			clear(due) // the kept list must not pin sent payloads
		}
	}
}

// observeRetransmit records one timeout-driven resend into the
// configured sink (no-op without one).
func (r *Reliable) observeRetransmit(e Envelope, backoff time.Duration) {
	s := r.cfg.Obs
	if !s.Enabled() {
		return
	}
	s.Count("transport.retransmits", 1)
	s.Observe("transport.retransmit.attempt", int64(e.Attempt))
	s.Observe("transport.backoff.us", backoff.Microseconds())
	rec := obs.Record{
		Step: s.Step(),
		Proc: e.Src,
		Op:   obs.OpRetransmit,
		Msg:  obs.NoMsg,
		Note: fmt.Sprintf("P%d->P%d seq %d attempt %d, next in %v", e.Src, e.Dst, e.Seq, e.Attempt, backoff),
	}
	if e.Wire.Kind == protocol.UserWire {
		rec.Msg = e.Wire.Msg
	}
	s.Trace(rec)
}

// rto returns the backoff for the given retransmission attempt.
func (r *Reliable) rto(attempt int) time.Duration {
	d := r.cfg.RTO
	for i := 0; i < attempt && d < r.cfg.MaxRTO; i++ {
		d *= 2
	}
	if d > r.cfg.MaxRTO {
		d = r.cfg.MaxRTO
	}
	return d
}
