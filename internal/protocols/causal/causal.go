// Package causal implements the two tagged causal-ordering protocols the
// paper cites as witnesses that X_co needs only piggybacking:
//
//   - RST — the Raynal–Schiper–Toueg algorithm [20]: every user message
//     carries an n×n matrix clock M where M[j][k] is the sender's
//     knowledge of how many messages j has sent to k. Process i delivers
//     a message from j when it is the next one from j and every message
//     sent to i causally before it has been delivered.
//
//   - SES — the Schiper–Eggli–Sandoz algorithm [21]: every user message
//     carries a vector timestamp plus a set of (destination, vector)
//     pairs recording causally preceding sends. Tags are O(n) entries of
//     O(n) words in the worst case but far smaller in sparse traffic —
//     the tag-size ablation against RST's always-n² matrix.
//
// Both deliver the exact specification X_co; BenchmarkCausalVariants
// compares their overhead.
//
// Tags are bytes, read where they lie. A sender encodes its clock into
// a buffer it keeps and carves the tag from a protocol.TagArena. A
// receiver validates an arriving tag against NumProcs (vc's in-place
// reads: a tag of another dimension, or one too short, is dropped
// without a delivery), copies the n entries its delivery condition
// reads into a slab it keeps, and holds the tag as the bytes it was
// handed — immutable under TagArena's contract — merging from them on
// delivery and writing them unchanged into its snapshot. A tag is never
// decoded into a vc.Matrix or vc.Vector.
package causal

import (
	"encoding/binary"
	"slices"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
	"msgorder/internal/vc"
)

// rows is a slab of n-entry rows, one per held message and in the held
// buffer's order, so holding a message costs no allocation once the
// slab has grown to the largest holdback seen.
type rows struct {
	n int
	s []uint64
}

// spare returns a zeroed row past the last one, kept only by keep.
func (r *rows) spare() []uint64 {
	r.s = slices.Grow(r.s, r.n)
	row := r.s[len(r.s) : len(r.s)+r.n]
	clear(row)
	return row
}

// keep appends the row spare returned.
func (r *rows) keep() { r.s = r.s[:len(r.s)+r.n] }

// at returns row i.
func (r *rows) at(i int) []uint64 { return r.s[i*r.n : (i+1)*r.n] }

// remove deletes row i, shifting the later rows down.
func (r *rows) remove(i int) { r.s = slices.Delete(r.s, i*r.n, (i+1)*r.n) }

// sender reports whether from names one of the n processes.
func sender(from event.ProcID, n int) bool { return from >= 0 && int(from) < n }

// --- RST ---

// RST is one Raynal–Schiper–Toueg protocol instance.
type RST struct {
	env protocol.Env
	m   *vc.Matrix
	del []uint64 // del[j] = messages from j delivered here
	// held buffers received-but-undeliverable messages; cols.at(i) is
	// held[i]'s column tag[·][self], all its delivery condition reads.
	held []heldRST
	cols rows
	// tags is the arena OnInvoke carves its tags from; enc is the
	// matrix encoding OnInvoke and Snapshot write first.
	tags protocol.TagArena
	enc  []byte
	snap snapio.Writer // Snapshot's encoding, reused (protocol.Snapshotter)
}

type heldRST struct {
	id   event.MsgID
	from event.ProcID
	tag  []byte // the wire's encoded matrix, validated at OnReceive
}

var (
	_ protocol.Process   = (*RST)(nil)
	_ protocol.Describer = (*RST)(nil)
)

// RSTMaker builds RST instances.
func RSTMaker() protocol.Process { return &RST{} }

// Describe declares the tagged capability class.
func (p *RST) Describe() protocol.Descriptor {
	return protocol.Descriptor{Name: "causal-rst", Class: protocol.Tagged}
}

// Init allocates the matrix clock.
func (p *RST) Init(env protocol.Env) {
	p.env = env
	n := env.NumProcs()
	p.m = vc.NewMatrix(n)
	p.del = make([]uint64, n)
	p.cols = rows{n: n}
}

// OnInvoke increments the sender's row and sends the matrix as the tag.
func (p *RST) OnInvoke(m event.Message) {
	p.m.Incr(int(p.env.Self()), int(m.To))
	p.enc = p.m.AppendEncode(p.enc[:0])
	p.env.Send(protocol.Wire{
		To:    m.To,
		Kind:  protocol.UserWire,
		Msg:   m.ID,
		Color: m.Color,
		Tag:   p.tags.Copy(p.enc),
	})
}

// OnReceive applies the RST delivery condition, buffering when needed.
func (p *RST) OnReceive(w protocol.Wire) {
	if w.Kind != protocol.UserWire || !sender(w.From, p.env.NumProcs()) {
		return
	}
	if vc.MatrixColumn(p.cols.spare(), w.Tag, int(p.env.Self())) != nil {
		return // malformed tag or not n×n: drop; the liveness check will flag it
	}
	p.cols.keep()
	p.held = append(p.held, heldRST{id: w.Msg, from: w.From, tag: w.Tag})
	p.drain()
}

// deliverable: the message is the next from its sender, and every message
// sent to self causally before it has been delivered. col is the tag's
// column for self.
func (p *RST) deliverable(from event.ProcID, col []uint64) bool {
	if col[from] != p.del[from]+1 {
		return false
	}
	for k, c := range col {
		if k != int(from) && c > p.del[k] {
			return false
		}
	}
	return true
}

func (p *RST) drain() {
	for {
		progress := false
		for i := 0; i < len(p.held); i++ {
			h := p.held[i]
			if !p.deliverable(h.from, p.cols.at(i)) {
				continue
			}
			p.held = slices.Delete(p.held, i, i+1)
			p.cols.remove(i)
			// Commit state before delivering: Deliver may reenter (a
			// user hook can invoke follow-up messages synchronously),
			// and those must be tagged with this delivery's knowledge.
			p.del[h.from]++
			_ = p.m.MergeEncoded(h.tag) // validated at OnReceive
			p.env.Deliver(h.id)
			progress = true
			break
		}
		if !progress {
			return
		}
	}
}

// --- SES ---

// SES is one Schiper–Eggli–Sandoz protocol instance.
type SES struct {
	env protocol.Env
	v   vc.Vector
	// vm[k] is the timestamp knowledge of messages sent to process k,
	// nil until there is some.
	vm []vc.Vector
	// held buffers received-but-undeliverable messages; needs.at(i) is
	// held[i]'s (self, V) constraint V, when it has one.
	held  []heldSES
	needs rows
	// tags is the arena OnInvoke carves its tags from; enc is the
	// encoding OnInvoke and Snapshot write first.
	tags protocol.TagArena
	enc  []byte
	snap snapio.Writer // Snapshot's encoding, reused (protocol.Snapshotter)
}

type heldSES struct {
	id  event.MsgID
	tag []byte // the wire's tag, validated at OnReceive
	// need is the encoding of the tag's (self, V) constraint, inside
	// tag; nil when unconstrained.
	need []byte
}

var (
	_ protocol.Process   = (*SES)(nil)
	_ protocol.Describer = (*SES)(nil)
)

// SESMaker builds SES instances.
func SESMaker() protocol.Process { return &SES{} }

// Describe declares the tagged capability class.
func (p *SES) Describe() protocol.Descriptor {
	return protocol.Descriptor{Name: "causal-ses", Class: protocol.Tagged}
}

// Init allocates the vector clock and send buffer.
func (p *SES) Init(env protocol.Env) {
	p.env = env
	n := env.NumProcs()
	p.v = vc.NewVector(n)
	p.vm = make([]vc.Vector, n)
	p.needs = rows{n: n}
}

// OnInvoke timestamps the message, attaches the send buffer, and records
// the send in it.
func (p *SES) OnInvoke(m event.Message) {
	p.v.Tick(int(p.env.Self()))
	p.enc = appendSES(p.enc[:0], p.v, p.vm)
	if prev := p.vm[m.To]; prev != nil {
		prev.Merge(p.v)
	} else {
		p.vm[m.To] = p.v.Clone()
	}
	p.env.Send(protocol.Wire{
		To:    m.To,
		Kind:  protocol.UserWire,
		Msg:   m.ID,
		Color: m.Color,
		Tag:   p.tags.Copy(p.enc),
	})
}

// OnReceive applies the SES delivery condition.
func (p *SES) OnReceive(w protocol.Wire) {
	if w.Kind != protocol.UserWire {
		return
	}
	need, err := checkSES(w.Tag, p.env.NumProcs(), int(p.env.Self()))
	if err != nil {
		return // malformed tag: drop
	}
	row := vc.Vector(p.needs.spare())
	if need != nil {
		_ = row.MergeEncoded(need) // validated by checkSES
	}
	p.needs.keep()
	p.held = append(p.held, heldSES{id: w.Msg, tag: w.Tag, need: need})
	p.drain()
}

func (p *SES) drain() {
	for {
		progress := false
		for i := 0; i < len(p.held); i++ {
			h := p.held[i]
			if h.need != nil && !vc.Vector(p.needs.at(i)).LessEq(p.v) {
				continue
			}
			p.held = slices.Delete(p.held, i, i+1)
			p.needs.remove(i)
			// Commit state before delivering (Deliver may reenter).
			p.merge(h.tag)
			p.env.Deliver(h.id)
			progress = true
			break
		}
		if !progress {
			return
		}
	}
}

// merge commits a delivered tag: v takes the maximum with its
// timestamp, and each entry for another destination raises what vm
// knows of the messages sent there. The tag passed checkSES at
// OnReceive, so none of its reads can fail.
func (p *SES) merge(tag []byte) {
	n, self := p.env.NumProcs(), int(p.env.Self())
	tm, cnt, entries, _ := splitSES(tag, n)
	_ = p.v.MergeEncoded(tm)
	for range cnt {
		dst, vec, rest, _ := nextEntry(entries, n)
		entries = rest
		if dst == self {
			continue
		}
		if p.vm[dst] == nil {
			p.vm[dst] = vc.NewVector(n)
		}
		_ = p.vm[dst].MergeEncoded(vec)
	}
}

// appendSES appends the SES tag (tm, entries) to dst: tm, then a count
// of entries, then each destination and vector in ascending
// destination order. entries[k] is nil when there is none for k.
func appendSES(dst []byte, tm vc.Vector, entries []vc.Vector) []byte {
	cnt := 0
	for _, vec := range entries {
		if vec != nil {
			cnt++
		}
	}
	dst = tm.AppendEncode(dst)
	dst = binary.AppendUvarint(dst, uint64(cnt))
	for k, vec := range entries {
		if vec != nil {
			dst = binary.AppendUvarint(dst, uint64(k))
			dst = vec.AppendEncode(dst)
		}
	}
	return dst
}

// checkSES validates an SES tag for n processes in place — every vector
// of dimension n, destinations below n and ascending as appendSES
// writes them, nothing after the last entry — and returns the encoding
// of the entry for self (nil when there is none).
func checkSES(b []byte, n, self int) (need []byte, err error) {
	_, cnt, entries, err := splitSES(b, n)
	if err != nil {
		return nil, err
	}
	last := -1
	for range cnt {
		var dst int
		var vec []byte
		if dst, vec, entries, err = nextEntry(entries, n); err != nil {
			return nil, err
		}
		if dst <= last {
			return nil, vc.ErrDecode
		}
		last = dst
		if dst == self {
			need = vec
		}
	}
	if len(entries) != 0 {
		return nil, vc.ErrDecode
	}
	return need, nil
}

// splitSES splits an SES tag into tm's encoding, the entry count and
// the entries' bytes, all aliasing b. A tag has at most one entry per
// process.
func splitSES(b []byte, n int) (tm []byte, cnt int, entries []byte, err error) {
	tm, rest, err := vc.SplitVector(b, n)
	if err != nil {
		return nil, 0, nil, err
	}
	c, k := binary.Uvarint(rest)
	if k <= 0 || c > uint64(n) {
		return nil, 0, nil, vc.ErrDecode
	}
	return tm, int(c), rest[k:], nil
}

// nextEntry reads the entry at the front of entries: its destination,
// its vector's encoding and the bytes after it.
func nextEntry(entries []byte, n int) (dst int, vec, rest []byte, err error) {
	d, k := binary.Uvarint(entries)
	if k <= 0 || d >= uint64(n) {
		return 0, nil, nil, vc.ErrDecode
	}
	vec, rest, err = vc.SplitVector(entries[k:], n)
	return int(d), vec, rest, err
}
