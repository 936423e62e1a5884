package main

import (
	"fmt"
	"math/rand"
	"time"
)

// workload is one row of the workload table: a stack (see stack.go)
// plus the fixed message counts of the four phases of a round. Counts,
// not durations, so per-message counters repeat from run to run.
type workload struct {
	name string
	why  string

	proto  string   // registry protocol of an un-multiplexed stack
	procs  int      // mesh size
	keys   int      // ordering keys (0 = unkeyed)
	chans  []string // multiplexed channel names (nil = no mux)
	wal    bool     // file WAL + group commit
	lossy  bool     // seeded 1% drop on every endpoint
	hops   int      // one-way network trips an idle delivery needs
	crash  bool     // the traced round ends with a crash-restart of P0
	prefix int      // messages the round-0 preflight validates

	rate   int // paced-phase cruise rate, msgs/s
	window int // sat-phase messages in flight mesh-wide
	warm   int
	idle   int
	paced  int
	sat    int
}

// workloads is the fixed table; names are cited by later issues.
var workloads = []workload{
	{
		name: "fifo-n3", proto: "fifo", procs: 3, hops: 1, prefix: 2000,
		rate: 20000, window: 128, warm: 20000, idle: 400, paced: 24000, sat: 150000,
		why: "Bare forwarding: cheapest protocol, so netmesh and transport do most of the work; the bypass workload for protocol, crash, shard and chanmux changes.",
	},
	{
		name: "causal-n8-wal", proto: "causal-rst", procs: 8, wal: true, hops: 1, crash: true, prefix: 2000,
		rate: 10000, window: 128, warm: 5000, idle: 400, paced: 12000, sat: 60000,
		why: "Tagged class at its dearest: an n-squared matrix tag on every message and a file WAL, so protocols, codec bytes and the crash journal dominate.",
	},
	{
		name: "sync-n3", proto: "sync", procs: 3, hops: 3, prefix: 200,
		rate: 150, window: 32, warm: 100, idle: 300, paced: 300, sat: 300,
		why: "General class: control round trips serialise delivery, so idle-path latency sets throughput; a batching gain that costs latency shows here.",
	},
	{
		name: "keyed-1k", proto: "fifo", procs: 3, keys: 1000, hops: 1, prefix: 2000,
		rate: 4000, window: 128, warm: 5000, idle: 400, paced: 6000, sat: 20000,
		why: "Ordering-key demux: 1000 lazily created per-key instances and a 1000-domain checkpoint every 64 journal entries, so shard does most of the work.",
	},
	{
		name: "mux-lossy", procs: 3, chans: []string{"orders", "audit"}, lossy: true, hops: 1, prefix: 2000,
		rate: 10000, window: 128, warm: 2000, idle: 400, paced: 20000, sat: 15000,
		why: "The reliability path: two channels on one mesh with 1% seeded drop, the only workload with retransmits; p90 is set by the RTO.",
	},
}

// chanProtos pins each mux channel's protocol and the catalog
// specification it is opened (and preflight-checked) with.
var chanProtos = map[string][2]string{
	"orders": {"fifo", "fifo"},
	"audit":  {"causal-rst", "causal-b2"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks every phase twentyfold for the -smoke self-test.
func (w workload) smoke() workload {
	shrink := func(n int) int {
		if n /= 20; n < 8 {
			n = 8
		}
		return n
	}
	w.warm, w.idle, w.paced, w.sat = shrink(w.warm), shrink(w.idle), shrink(w.paced), shrink(w.sat)
	w.prefix = shrink(w.prefix)
	return w
}

// domains is the number of ordering domains a message can name: keys,
// channels, or one.
func (w workload) domains() int {
	switch {
	case w.keys > 0:
		return w.keys
	case len(w.chans) > 0:
		return len(w.chans)
	}
	return 1
}

// settle is how long the wire must stay quiet after a phase before its
// counters are read: past the RTO where retransmissions are expected.
func (w workload) settle() time.Duration {
	if w.lossy {
		return 25 * time.Millisecond // past the 20 ms RTO
	}
	return 2 * time.Millisecond
}

// probeCount is how many messages the boot phase sends one at a time
// after the link proof, before set-up time stops: enough timer-bound
// work for setup_s to repeat, few enough that a lost message on the
// lossy workload rarely lands among them.
const probeCount = 20

// links is the number of directed (from, to, channel) paths the boot
// phase proves live before anything is timed.
func (w workload) links() int {
	n := w.procs * (w.procs - 1)
	if len(w.chans) > 0 {
		n *= len(w.chans)
	}
	return n
}

// appendStream appends n seeded messages: endpoints uniform with
// from ≠ to, keys uniform, channels strictly alternating.
func appendStream(dst []msg, w workload, rng *rand.Rand, n int) []msg {
	for ; n > 0; n-- {
		from := rng.Intn(w.procs)
		to := rng.Intn(w.procs - 1)
		if to >= from {
			to++
		}
		m := msg{from: uint8(from), to: uint8(to)}
		switch {
		case w.keys > 0:
			m.dom = uint16(rng.Intn(w.keys))
		case len(w.chans) > 0:
			m.dom = uint16(len(dst) % len(w.chans))
		}
		dst = append(dst, m)
	}
	return dst
}

// msg is one generated input: endpoints plus the index of its ordering
// domain (key or channel). The program under test only ever sees the
// event.Message stack.go builds from it.
type msg struct {
	from, to uint8
	dom      uint16
}

// phase indexes the segments of a round's message list.
type phase int

const (
	phLinks phase = iota
	phProbe
	phPreflight
	phWarm
	phIdle
	phPaced
	phSat
	phCrash
	numPhases
)

// plan is one round's complete input: the message list, where each
// phase starts, and the paced phase's due offsets.
type plan struct {
	msgs  []msg
	start [numPhases + 1]int // phase p covers msgs[start[p]:start[p+1]]
	// due[i] is paced message i's scheduled instant, as an offset from
	// the paced phase's start: whole 1 ms ticks, rate/1000 messages each.
	due []time.Duration
}

func (p *plan) span(ph phase) (lo, hi int) { return p.start[ph], p.start[ph+1] }

// makePlan derives a round's inputs from the seed alone: the same seed
// gives the same message list and the same due instants. The link
// messages come first (one per directed path, channels interleaved),
// then the seeded stream.
func makePlan(w workload, seed int64, preflight, crash bool) *plan {
	counts := [numPhases]int{phLinks: w.links(), phProbe: probeCount, phWarm: w.warm, phIdle: w.idle, phPaced: w.paced, phSat: w.sat}
	if preflight {
		counts[phPreflight] = w.prefix
	}
	if crash {
		counts[phCrash] = 1
	}
	p := &plan{}
	total := 0
	for ph, c := range counts {
		p.start[ph] = total
		total += c
	}
	p.start[numPhases] = total
	p.msgs = make([]msg, 0, total)

	nch := len(w.chans)
	for from := 0; from < w.procs; from++ {
		for to := 0; to < w.procs; to++ {
			if from == to {
				continue
			}
			for c := 0; c < max(nch, 1); c++ {
				p.msgs = append(p.msgs, msg{from: uint8(from), to: uint8(to), dom: uint16(c)})
			}
		}
	}
	p.msgs = appendStream(p.msgs, w, rand.New(rand.NewSource(seed)), total-len(p.msgs))
	if crash {
		// The recovery probe must be delivered at the crashed process.
		p.msgs[total-1] = msg{from: 1, to: 0}
	}

	p.due = make([]time.Duration, w.paced)
	for i := range p.due {
		tick := int64(i) * 1000 / int64(w.rate)
		p.due[i] = time.Duration(tick) * time.Millisecond
	}
	return p
}
