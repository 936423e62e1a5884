// Package shard adds the ordering-key dimension to the protocol
// runtimes: every key names an independent ordering domain, ordered
// internally by the classifier-chosen minimal protocol class and
// completely unordered against other keys (the paper's specifications
// quantify over message pairs; a key partitions the pairs the forbidden
// predicate ranges over). The package provides the three pieces every
// runtime needs:
//
//	Of    — key → goroutine-shard assignment (stateless hash),
//	Ring  — key → daemon routing (consistent hashing, stable under
//	        membership change),
//	New   — a protocol.Maker combinator that turns one instance of a
//	        protocol into millions of lazily created per-key instances
//	        behind the unchanged Process interface.
//
// A sharded process stays a single protocol.Process per OS process: the
// harness's per-process serialization still holds, so inner instances
// need no locking, and cross-key independence is structural — two keys
// never share mutable state, so one key's buffered backlog cannot block
// another's delivery.
package shard

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
)

// Of maps a key to one of n goroutine shards. The finalizer-style mix
// spreads adjacent keys (KeyOf output or small integers alike) across
// shards uniformly; Of(k, n) is stable for fixed n, so a key always
// lands on the same shard within a run.
func Of(k event.Key, n int) int {
	if n <= 1 {
		return 0
	}
	return int(mix64(uint64(k)) % uint64(n))
}

// mix64 is the splitmix64 finalizer: a cheap bijective avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Ring is a consistent-hash ring assigning keys to daemons: each daemon
// owns vnodes points on a 64-bit circle and a key belongs to the first
// point at or after its hash. Unlike Of, adding or removing one daemon
// moves only ~1/n of the keyspace, so a mod-daemon fleet can grow
// without re-homing every ordering domain.
type Ring struct {
	hashes  []uint64
	daemons []int
	n       int
}

// DefaultVnodes is the per-daemon virtual-node count NewRing uses when
// given vnodes <= 0: enough points that daemon loads stay within a few
// percent of each other.
const DefaultVnodes = 64

// NewRing builds a ring over daemons 0..n-1 with the given number of
// virtual nodes per daemon.
func NewRing(n, vnodes int) *Ring {
	if n <= 0 {
		n = 1
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	type point struct {
		hash   uint64
		daemon int
	}
	pts := make([]point, 0, n*vnodes)
	for d := 0; d < n; d++ {
		for v := 0; v < vnodes; v++ {
			// Mix the (daemon, vnode) pair into a circle position; the
			// odd constant decorrelates it from key hashing in Of.
			h := mix64(uint64(d)*0x9e3779b97f4a7c15 + uint64(v) + 1)
			pts = append(pts, point{hash: h, daemon: d})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].daemon < pts[j].daemon
	})
	r := &Ring{hashes: make([]uint64, len(pts)), daemons: make([]int, len(pts)), n: n}
	for i, p := range pts {
		r.hashes[i] = p.hash
		r.daemons[i] = p.daemon
	}
	return r
}

// Daemons returns the ring's daemon count.
func (r *Ring) Daemons() int { return r.n }

// Daemon returns the daemon owning key k.
func (r *Ring) Daemon(k event.Key) int {
	h := mix64(uint64(k))
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0 // wrap around the circle
	}
	return r.daemons[i]
}

// keyEnv is the environment handed to one per-key inner instance: it
// forwards everything to the sharded process's own environment, but
// stamps outgoing wires with the key so the receiving side can
// demultiplex them back onto its instance for the same key.
type keyEnv struct {
	parent protocol.Env
	key    event.Key
}

var _ protocol.Env = (*keyEnv)(nil)

func (e *keyEnv) Self() event.ProcID { return e.parent.Self() }
func (e *keyEnv) NumProcs() int      { return e.parent.NumProcs() }
func (e *keyEnv) Deliver(id event.MsgID) {
	e.parent.Deliver(id)
}
func (e *keyEnv) Send(w protocol.Wire) {
	w.Key = e.key
	e.parent.Send(w)
}

// domain is one ordering key's inner instance with its checkpoint
// cache: snap is the instance's last encoding, stale while dirty. It
// is the instance's own buffer (protocol.Snapshotter), which stays
// valid exactly as long as the domain stays clean: only a handler call
// (which marks it dirty) or another Snapshot could overwrite it.
type domain struct {
	keyEnv
	inst  protocol.Process
	snap  []byte
	dirty bool
}

// Process is one process's sharded protocol instance: a demultiplexer
// over lazily created per-key instances of the inner protocol. The
// instances share nothing, so the per-key cost is exactly one inner
// instance (for the common single-channel case a few small maps) and
// creating the millionth key is as cheap as creating the first.
type Process struct {
	maker protocol.Maker
	desc  protocol.Descriptor
	env   protocol.Env
	doms  map[event.Key]*domain
	// order holds every domain, ascending by key once sorted; dirty
	// holds those a handler may have changed since the last Snapshot.
	order  []*domain
	sorted bool
	dirty  []*domain
}

var (
	_ protocol.Process     = (*Process)(nil)
	_ protocol.Describer   = (*Process)(nil)
	_ protocol.Broadcaster = (*Process)(nil)
)

// New wraps a protocol maker into a sharded maker: each built Process
// demultiplexes invokes and receives by ordering key onto per-key inner
// instances. The sharded process advertises the inner protocol's
// capability class (the key stamp is harness-owned wire state, not a
// tag) and is a Snapshotter exactly when the inner protocol is.
func New(maker protocol.Maker) protocol.Maker {
	probe := maker()
	desc := protocol.Descriptor{Name: "sharded", Class: protocol.General}
	if d, ok := probe.(protocol.Describer); ok {
		in := d.Describe()
		desc = protocol.Descriptor{Name: "sharded(" + in.Name + ")", Class: in.Class}
	}
	_, snaps := probe.(protocol.Snapshotter)
	return func() protocol.Process {
		p := &Process{maker: maker, desc: desc}
		if snaps {
			return &snapProcess{Process: p}
		}
		return p
	}
}

// Describe reports the inner protocol's class under a sharded(...) name.
func (p *Process) Describe() protocol.Descriptor { return p.desc }

// Keys returns the number of ordering domains instantiated so far.
func (p *Process) Keys() int { return len(p.doms) }

// Init prepares the demultiplexer; inner instances are created on first
// use of their key.
func (p *Process) Init(env protocol.Env) {
	p.env = env
	p.adopt(make(map[event.Key]*domain), nil)
}

// adopt replaces the domain table; every adopted domain starts dirty.
func (p *Process) adopt(doms map[event.Key]*domain, order []*domain) {
	p.doms, p.order, p.sorted, p.dirty = doms, order, false, nil
	for _, d := range order {
		p.touch(d)
	}
}

// newDomain builds key k's inner instance.
func (p *Process) newDomain(k event.Key) *domain {
	d := &domain{keyEnv: keyEnv{parent: p.env, key: k}, inst: p.maker()}
	d.inst.Init(&d.keyEnv)
	return d
}

// touch marks d as possibly changed since the last Snapshot.
func (p *Process) touch(d *domain) {
	if !d.dirty {
		d.dirty = true
		p.dirty = append(p.dirty, d)
	}
}

// instance returns the inner instance for key k, creating it lazily,
// and marks the domain dirty: every handler reaches its instance
// through here, and an instance changes state only inside a handler
// (protocol.Snapshotter), so a domain not in dirty encodes as cached.
func (p *Process) instance(k event.Key) protocol.Process {
	d, ok := p.doms[k]
	if !ok {
		d = p.newDomain(k)
		p.doms[k] = d
		p.order = append(p.order, d)
		p.sorted = false
	}
	p.touch(d)
	return d.inst
}

// OnInvoke routes the invoke to its key's domain.
func (p *Process) OnInvoke(m event.Message) {
	p.instance(m.Key).OnInvoke(m)
}

// OnReceive routes the wire to its key's domain.
func (p *Process) OnReceive(w protocol.Wire) {
	p.instance(w.Key).OnReceive(w)
}

// OnBroadcast splits one logical broadcast by key (all copies normally
// share the invoke's key) and hands each group to its domain — as a
// native broadcast when the inner protocol supports it, as individual
// invokes otherwise.
func (p *Process) OnBroadcast(msgs []event.Message) {
	for len(msgs) > 0 {
		k := msgs[0].Key
		group := msgs[:0:0]
		rest := msgs[:0:0]
		for _, m := range msgs {
			if m.Key == k {
				group = append(group, m)
			} else {
				rest = append(rest, m)
			}
		}
		in := p.instance(k)
		if b, ok := in.(protocol.Broadcaster); ok {
			b.OnBroadcast(group)
		} else {
			for _, m := range group {
				in.OnInvoke(m)
			}
		}
		msgs = rest
	}
}

// snapVersion versions the sharded snapshot encoding.
const snapVersion = 1

// snapProcess is the Snapshotter-capable variant New returns when the
// inner protocol supports checkpointing. It is a separate type so a
// sharded non-Snapshotter protocol does not falsely satisfy the
// interface probe the crash harnesses use.
type snapProcess struct {
	*Process
	blob snapio.Writer // Snapshot's encoding, kept for the next one
}

var _ protocol.Snapshotter = (*snapProcess)(nil)

// Snapshot encodes every instantiated domain, sorted by key so the
// encoding is deterministic (the crash harness verifies recovery by
// byte comparison). Only dirty domains are re-encoded; the rest are
// copied from their cached encoding into the blob buffer the process
// keeps, so a checkpoint costs O(domains touched) plus one copy of the
// blob, and once that buffer has grown to the blob's size it
// allocates nothing of its own.
func (p *snapProcess) Snapshot() []byte {
	for _, d := range p.dirty {
		d.snap, d.dirty = d.inst.(protocol.Snapshotter).Snapshot(), false
	}
	p.dirty = p.dirty[:0]
	if !p.sorted {
		slices.SortFunc(p.order, func(a, b *domain) int { return cmp.Compare(a.key, b.key) })
		p.sorted = true
	}
	w := &p.blob
	w.Reset()
	w.Byte(snapVersion)
	w.Int(len(p.order))
	for _, d := range p.order {
		w.U64(uint64(d.key))
		w.Bytes(d.snap)
	}
	return w.Out()
}

// Restore rebuilds every domain from a Snapshot onto a freshly Init'd
// sharded process. Restored domains start dirty: their next encoding
// comes from the instance, not from the bytes it was restored from.
func (p *snapProcess) Restore(b []byte) error {
	r := snapio.NewReader(b)
	if v := r.Byte(); v != snapVersion {
		return fmt.Errorf("shard: snapshot version %d, want %d", v, snapVersion)
	}
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n > len(b) { // a domain takes at least two bytes
		return snapio.ErrCorrupt
	}
	doms := make(map[event.Key]*domain, n)
	order := make([]*domain, 0, n)
	for i := 0; i < n; i++ {
		k := event.Key(r.U64())
		snap := r.Bytes()
		if err := r.Err(); err != nil {
			return err
		}
		if _, dup := doms[k]; dup {
			return fmt.Errorf("shard: key %#x twice: %w", uint64(k), snapio.ErrCorrupt)
		}
		d := p.newDomain(k)
		if err := d.inst.(protocol.Snapshotter).Restore(snap); err != nil {
			return fmt.Errorf("shard: key %#x: %w", uint64(k), err)
		}
		doms[k] = d
		order = append(order, d)
	}
	if err := r.Close(); err != nil {
		return err
	}
	p.adopt(doms, order)
	return nil
}
