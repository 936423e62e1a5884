// Package chanmux carries many logical ordering channels over the one-
// TCP-connection-per-peer-pair mesh: a multi-tenant ordering daemon.
// Each channel opens with its own forbidden-predicate specification,
// runs through the paper's classifier, and gets the cheapest sufficient
// protocol instance for its class — so a tagless channel pays no
// tagging or sequencing overhead even while it shares a connection with
// a causal or synchronous channel. Frames carry a channel ID
// (transport.Envelope.Chan); the mesh keeps one outbox FIFO per channel
// and fills batches round-robin, so a backlogged channel cannot
// head-of-line-block its siblings; sequencing, cumulative acks, dedup,
// WAL journaling and crash recovery are all per channel, because every
// channel hosts a full netmesh node (netmesh.NewMuxNode) over the
// shared carrier. That reuse is the correctness argument: a channel's
// user view is produced by exactly the machinery a standalone
// single-spec deployment runs, so the views are byte-identical.
//
// Opening is symmetric by contract: every peer must open the same
// channel name with the same specification (the mesh handshake
// fingerprints only the mux itself — channels come and go while the
// connection lives). Envelopes for a channel this peer has not opened
// are dropped and counted; the sender's reliable sublayer retransmits
// them, so an open racing the first sends loses nothing.
package chanmux

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"msgorder/internal/classify"
	"msgorder/internal/event"
	"msgorder/internal/netmesh"
	"msgorder/internal/obs"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/registry"
	"msgorder/internal/transport"
)

// ErrUnknownChannel reports an operation addressed to a channel name
// this mux has not opened. Check with errors.Is.
var ErrUnknownChannel = errors.New("chanmux: unknown channel")

// DefaultChan is the reserved channel ID of un-multiplexed traffic; no
// named channel may claim it.
const DefaultChan = uint32(0)

// ChannelID derives a channel's wire ID from its name (FNV-1a, the
// same family event.KeyOf uses) so every peer computes the same ID
// without negotiation. The default channel's ID 0 is reserved: a name
// hashing to 0 is remapped deterministically.
func ChannelID(name string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= prime32
	}
	if h == DefaultChan {
		h = prime32
	}
	return h
}

// ValidName reports whether a channel name is usable: non-empty and
// limited to letters, digits, '.', '_' and '-', so names embed safely
// in WAL filenames, metric labels and the mod daemon's comma-separated
// -channels flag.
func ValidName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Config configures one process's end of a multiplexed mesh.
type Config struct {
	// Self is this process's id; Procs the mesh size.
	Self  event.ProcID
	Procs int
	// Mesh configures the shared socket layer. Self is forced; an empty
	// Fingerprint defaults to Fingerprint("mux", "", Procs) — channels
	// are not part of the handshake.
	Mesh netmesh.MeshConfig
	// Transport tunes every channel's reliable sublayer.
	Transport transport.Config
	// WALDir, when non-empty, gives each channel a file-backed journal
	// at <WALDir>/<name>.wal; empty keeps journals in memory.
	WALDir string
	// SnapshotEvery is each channel's WAL checkpoint cadence (0 = never).
	SnapshotEvery int
	// Tracer and Metrics, when non-nil, instrument every channel: trace
	// records are stamped with the channel name (obs.WithChannel) and
	// histograms are labelled "proto@channel", so one merged timeline
	// and one registry still tell the tenants apart.
	Tracer  obs.Tracer
	Metrics *obs.Registry
}

// Spec describes one channel to open.
type Spec struct {
	// Name is the channel's mesh-wide identity.
	Name string
	// Spec is the channel's forbidden-predicate specification (catalog
	// name or expression; empty forbids nothing). The classifier picks
	// the cheapest sufficient protocol for its class.
	Spec string
	// Proto, when non-empty, forces a catalog protocol instead of the
	// classifier's witness; with Spec also set, a protocol weaker than
	// the specification's class is refused.
	Proto string
}

// Mux is one process's end of a multiplexed mesh: the shared socket
// carrier plus the set of open channels. Safe for concurrent use.
type Mux struct {
	cfg  Config
	mesh *netmesh.Mesh

	mu     sync.RWMutex
	byID   map[uint32]*Channel
	byName map[string]*Channel
	// pending reserves names/IDs whose node is still booting, so
	// concurrent Opens race cleanly while receive never sees a channel
	// without a live node (traffic arriving mid-boot counts as unknown
	// drops and is healed by retransmission once the open completes).
	pending map[string]uint32
	closed  bool

	// unknownDrops counts arriving envelopes for channel IDs not open
	// here — open races and traffic outliving a close.
	unknownDrops atomic.Uint64
}

// New binds the shared mesh endpoint. Channels are opened afterwards
// with Open; Close tears everything down.
func New(cfg Config) (*Mux, error) {
	if cfg.Procs <= 0 || int(cfg.Self) < 0 || int(cfg.Self) >= cfg.Procs {
		return nil, fmt.Errorf("chanmux: bad identity %d/%d", cfg.Self, cfg.Procs)
	}
	m := &Mux{
		cfg:     cfg,
		byID:    make(map[uint32]*Channel),
		byName:  make(map[string]*Channel),
		pending: make(map[string]uint32),
	}
	mcfg := cfg.Mesh
	mcfg.Self = cfg.Self
	if mcfg.Fingerprint == "" {
		mcfg.Fingerprint = netmesh.Fingerprint("mux", "", cfg.Procs)
	}
	mesh, err := netmesh.NewMesh(mcfg, m.receive)
	if err != nil {
		return nil, err
	}
	m.mesh = mesh
	return m, nil
}

// demuxScratch lends receive a slice to gather one channel's share of
// a mixed batch into; the node's inbox copies it before it goes back.
var demuxScratch = sync.Pool{New: func() any { return new([]transport.Envelope) }}

// receive demultiplexes one arriving batch: each channel's envelopes
// (in arrival order) go to its node as one batch — one inbox item, so
// one cumulative ack per source, per (frame, channel) — and envelopes
// for unopened channels are dropped and counted.
func (m *Mux) receive(envs []transport.Envelope) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	// Fast path: the whole batch is one channel (common — batches are
	// per-connection and traffic is often bursty per tenant).
	if !slices.ContainsFunc(envs, func(e transport.Envelope) bool { return e.Chan != envs[0].Chan }) {
		if len(envs) > 0 {
			m.handOff(envs[0].Chan, envs)
		}
		return
	}
	// Mixed: one pass per distinct channel, in order of first arrival.
	scratch := demuxScratch.Get().(*[]transport.Envelope)
	for i, e := range envs {
		id := e.Chan
		if slices.ContainsFunc(envs[:i], func(p transport.Envelope) bool { return p.Chan == id }) {
			continue // its channel's pass already ran
		}
		part := (*scratch)[:0]
		for _, f := range envs[i:] {
			if f.Chan == id {
				part = append(part, f)
			}
		}
		m.handOff(id, part)
		clear(part)
		*scratch = part
	}
	demuxScratch.Put(scratch)
}

// handOff gives one channel's share of a batch to its node, or counts
// it dropped if the channel is not open here. Caller holds mu.RLock.
func (m *Mux) handOff(id uint32, part []transport.Envelope) {
	if ch := m.byID[id]; ch != nil {
		ch.node.HandleEnvelopes(part)
	} else {
		m.unknownDrops.Add(uint64(len(part)))
	}
}

// Open starts a channel: the spec is resolved to its cheapest
// sufficient protocol (or the forced one, checked against the spec's
// class), and a full netmesh node is booted for it over the shared
// carrier. Every peer must open the same name with the same Spec.
func (m *Mux) Open(s Spec) (*Channel, error) {
	if !ValidName(s.Name) {
		return nil, fmt.Errorf("chanmux: invalid channel name %q", s.Name)
	}
	entry, class, err := registry.ForSpec(s.Spec)
	if err != nil {
		return nil, fmt.Errorf("chanmux: channel %q: %w", s.Name, err)
	}
	if s.Proto != "" {
		forced, ok := registry.ByName(s.Proto)
		if !ok {
			return nil, fmt.Errorf("chanmux: channel %q: unknown protocol %q", s.Name, s.Proto)
		}
		if s.Spec != "" {
			required, err := registry.RequiredRank(class)
			if err != nil {
				return nil, fmt.Errorf("chanmux: channel %q: %w", s.Name, err)
			}
			if d, ok := forced.Maker().(protocol.Describer); ok && int(d.Describe().Class) < required {
				return nil, fmt.Errorf("chanmux: channel %q: protocol %s is class %s, weaker than spec %q requires",
					s.Name, s.Proto, d.Describe().Class, s.Spec)
			}
		}
		entry = forced
	}
	id := ChannelID(s.Name)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("chanmux: mux closed")
	}
	if _, dup := m.byName[s.Name]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("chanmux: channel %q already open", s.Name)
	}
	if prev, collide := m.byID[id]; collide {
		m.mu.Unlock()
		return nil, fmt.Errorf("chanmux: channel %q collides with %q on ID %#x", s.Name, prev.name, id)
	}
	if _, dup := m.pending[s.Name]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("chanmux: channel %q already open", s.Name)
	}
	for prev, pid := range m.pending {
		if pid == id {
			m.mu.Unlock()
			return nil, fmt.Errorf("chanmux: channel %q collides with %q on ID %#x", s.Name, prev, id)
		}
	}
	// Reserve the name/ID before the (slow) node boot so concurrent
	// Opens of the same name race cleanly; published below only once
	// the node is live, so receive never demuxes into a half-built
	// channel.
	m.pending[s.Name] = id
	m.mu.Unlock()

	wal := ""
	if m.cfg.WALDir != "" {
		wal = filepath.Join(m.cfg.WALDir, s.Name+".wal")
	}
	node, err := netmesh.NewMuxNode(netmesh.NodeConfig{
		Self:          m.cfg.Self,
		Procs:         m.cfg.Procs,
		Maker:         entry.Maker,
		Transport:     m.cfg.Transport,
		WALPath:       wal,
		SnapshotEvery: m.cfg.SnapshotEvery,
		Tracer:        obs.WithChannel(m.cfg.Tracer, s.Name),
		Metrics:       m.cfg.Metrics,
		ProbeLabel:    entry.Name + "@" + s.Name,
	}, func(e transport.Envelope) {
		e.Chan = id
		m.mesh.Send(e)
	})
	if err != nil {
		m.mu.Lock()
		delete(m.pending, s.Name)
		m.mu.Unlock()
		return nil, fmt.Errorf("chanmux: channel %q: %w", s.Name, err)
	}
	ch := &Channel{name: s.Name, id: id, spec: s.Spec, proto: entry.Name, class: class, mux: m, node: node}
	m.mu.Lock()
	delete(m.pending, s.Name)
	if m.closed {
		m.mu.Unlock()
		node.Close()
		return nil, fmt.Errorf("chanmux: mux closed")
	}
	m.byName[s.Name] = ch
	m.byID[id] = ch
	m.mu.Unlock()
	return ch, nil
}

// Get resolves an open channel by name; unknown names yield a typed
// ErrUnknownChannel.
func (m *Mux) Get(name string) (*Channel, error) {
	m.mu.RLock()
	ch := m.byName[name]
	m.mu.RUnlock()
	if ch == nil || ch.node == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownChannel, name)
	}
	return ch, nil
}

// CloseChannel stops a channel and forgets it; later traffic for its ID
// counts as unknown drops at this peer.
func (m *Mux) CloseChannel(name string) error {
	m.mu.Lock()
	ch := m.byName[name]
	if ch != nil {
		delete(m.byName, name)
		delete(m.byID, ch.id)
	}
	m.mu.Unlock()
	if ch == nil || ch.node == nil {
		return fmt.Errorf("%w: %q", ErrUnknownChannel, name)
	}
	return ch.node.Close()
}

// Info describes one open channel.
type Info struct {
	// Name and ID identify the channel.
	Name string
	ID   uint32
	// Proto is the protocol instance serving it; Spec the specification
	// it was opened with; Class the classifier's verdict on that spec.
	Proto string
	Spec  string
	Class string
}

// Channels lists the open channels sorted by name.
func (m *Mux) Channels() []Info {
	m.mu.RLock()
	out := make([]Info, 0, len(m.byName))
	for _, ch := range m.byName {
		if ch.node == nil {
			continue
		}
		out = append(out, Info{Name: ch.name, ID: ch.id, Proto: ch.proto,
			Spec: ch.spec, Class: ch.class.String()})
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Addr returns the shared mesh endpoint's bound address.
func (m *Mux) Addr() string { return m.mesh.Addr() }

// Self returns this process's id.
func (m *Mux) Self() event.ProcID { return m.cfg.Self }

// Procs returns the mesh size.
func (m *Mux) Procs() int { return m.cfg.Procs }

// MeshCounters returns the shared carrier's socket tallies.
func (m *Mux) MeshCounters() netmesh.Counters { return m.mesh.Counters() }

// UnknownDrops returns how many arriving envelopes named a channel not
// open at this peer.
func (m *Mux) UnknownDrops() uint64 { return m.unknownDrops.Load() }

// Err surfaces a fatal mesh condition (handshake rejection) or the
// first failed channel's error.
func (m *Mux) Err() error {
	if err := m.mesh.Rejected(); err != nil {
		return err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, ch := range m.byName {
		if ch.node == nil {
			continue
		}
		if err := ch.node.Err(); err != nil {
			return fmt.Errorf("channel %q: %w", ch.name, err)
		}
	}
	return nil
}

// Close stops every channel, then the shared mesh.
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	chans := make([]*Channel, 0, len(m.byName))
	for _, ch := range m.byName {
		chans = append(chans, ch)
	}
	m.byName = make(map[string]*Channel)
	m.byID = make(map[uint32]*Channel)
	m.mu.Unlock()
	var first error
	for _, ch := range chans {
		if ch.node == nil {
			continue
		}
		if err := ch.node.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := m.mesh.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Channel is one logical ordering domain on the mux: a full protocol
// node (its own sequencing, acks, WAL, crash recovery) sharing the
// carrier with its siblings.
type Channel struct {
	name  string
	id    uint32
	spec  string
	proto string
	class classify.Class
	node  *netmesh.Node
	mux   *Mux
}

// Name returns the channel's mesh-wide identity.
func (c *Channel) Name() string { return c.name }

// ID returns the channel's wire ID (ChannelID of its name).
func (c *Channel) ID() uint32 { return c.id }

// Proto names the protocol instance serving the channel.
func (c *Channel) Proto() string { return c.proto }

// SpecString returns the specification the channel was opened with.
func (c *Channel) SpecString() string { return c.spec }

// Class returns the classifier's verdict on the channel's spec.
func (c *Channel) Class() classify.Class { return c.class }

// Invoke places a user message on the channel.
func (c *Channel) Invoke(msg event.Message) error { return c.node.Invoke(msg) }

// Deliveries returns the channel's local delivery sequence.
func (c *Channel) Deliveries() []event.MsgID { return c.node.Deliveries() }

// Events returns the channel's local user-visible event log.
func (c *Channel) Events() []event.Event { return c.node.Events() }

// Stats returns the channel's protocol tallies.
func (c *Channel) Stats() protocol.Stats { return c.node.Stats() }

// TransportCounters returns the channel's reliable-sublayer tallies.
func (c *Channel) TransportCounters() transport.Counters { return c.node.TransportCounters() }

// WaitDeliveries blocks until the channel has delivered at least k
// messages locally.
func (c *Channel) WaitDeliveries(k int, timeout time.Duration) error {
	return c.node.WaitDeliveries(k, timeout)
}

// Crash tears the channel's protocol instance down for downtime, then
// recovers it from its WAL — the channel's siblings keep running.
func (c *Channel) Crash(downtime time.Duration) error { return c.node.Crash(downtime) }

// Err surfaces the channel node's fatal error, if any.
func (c *Channel) Err() error { return c.node.Err() }
