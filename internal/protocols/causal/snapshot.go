package causal

import (
	"cmp"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
	"msgorder/internal/vc"
)

var (
	_ protocol.Snapshotter = (*RST)(nil)
	_ protocol.Snapshotter = (*SES)(nil)
	_ protocol.Snapshotter = (*BSS)(nil)
)

// Snapshot encodes the matrix clock, delivery counts and held buffer.
// The held buffer is encoded in arrival order — the drain scan is
// order-sensitive, so order IS state. Held tags are written as the
// bytes they arrived as, which are their encoding.
func (p *RST) Snapshot() []byte {
	w := &p.snap
	w.Reset()
	p.enc = p.m.AppendEncode(p.enc[:0])
	w.Bytes(p.enc)
	w.Int(len(p.del))
	for _, d := range p.del {
		w.U64(d)
	}
	w.Int(len(p.held))
	for _, h := range p.held {
		w.Int(int(h.id))
		w.Int(int(h.from))
		w.Bytes(h.tag)
	}
	return w.Out()
}

// Restore rebuilds the state onto a freshly Init'd instance. Every
// clock must have dimension NumProcs and every count fit the bytes
// left.
func (p *RST) Restore(b []byte) error {
	r := snapio.NewReader(b)
	n, self := p.env.NumProcs(), int(p.env.Self())
	m := vc.NewMatrix(n)
	if err := m.MergeEncoded(r.Next(r.Int())); err != nil {
		return cmp.Or(r.Err(), err)
	}
	if r.Count(1) != n {
		return cmp.Or(r.Err(), snapio.ErrCorrupt)
	}
	del := make([]uint64, n)
	for i := range del {
		del[i] = r.U64()
	}
	var held []heldRST
	cols := rows{n: n}
	for range r.Count(3) {
		h := heldRST{id: event.MsgID(r.Int()), from: event.ProcID(r.Int()), tag: r.Bytes()}
		if err := vc.MatrixColumn(cols.spare(), h.tag, self); err != nil || !sender(h.from, n) {
			return cmp.Or(r.Err(), err, snapio.ErrCorrupt)
		}
		cols.keep()
		held = append(held, h)
	}
	if err := r.Close(); err != nil {
		return err
	}
	p.m, p.del, p.held, p.cols = m, del, held, cols
	return nil
}

// Snapshot encodes the vector clock, per-destination send knowledge and
// held buffer (in arrival order — the drain scan is order-sensitive).
// A held message is written as its timestamp, its constraint for self
// and its other entries, each vector as the bytes it arrived as.
func (p *SES) Snapshot() []byte {
	w := &p.snap
	w.Reset()
	p.enc = p.v.AppendEncode(p.enc[:0])
	w.Bytes(p.enc)
	known := 0
	for _, vec := range p.vm {
		if vec != nil {
			known++
		}
	}
	w.Int(known)
	for k, vec := range p.vm {
		if vec != nil {
			w.Int(k)
			p.enc = vec.AppendEncode(p.enc[:0])
			w.Bytes(p.enc)
		}
	}
	w.Int(len(p.held))
	n, self := p.env.NumProcs(), int(p.env.Self())
	for _, h := range p.held {
		w.Int(int(h.id))
		// The tag passed checkSES at OnReceive or Restore: no read fails.
		tm, cnt, entries, _ := splitSES(h.tag, n)
		w.Bytes(tm)
		w.Bool(h.need != nil)
		others := cnt
		if h.need != nil {
			w.Bytes(h.need)
			others--
		}
		w.Int(others)
		for range cnt {
			dst, vec, rest, _ := nextEntry(entries, n)
			entries = rest
			if dst != self {
				w.Int(dst)
				w.Bytes(vec)
			}
		}
	}
	return w.Out()
}

// Restore rebuilds the state onto a freshly Init'd instance. Every
// vector must have dimension NumProcs and every count fit the bytes
// left. A held message's tag is re-encoded from its parts.
func (p *SES) Restore(b []byte) error {
	r := snapio.NewReader(b)
	n, self := p.env.NumProcs(), int(p.env.Self())
	v, err := readVec(r, n)
	if err != nil {
		return err
	}
	vm, err := readVecs(r, n, -1)
	if err != nil {
		return err
	}
	var held []heldSES
	needs := rows{n: n}
	for range r.Count(4) {
		id := event.MsgID(r.Int())
		tm, err := readVec(r, n)
		if err != nil {
			return err
		}
		var need vc.Vector
		if r.Bool() {
			if need, err = readVec(r, n); err != nil {
				return err
			}
		}
		entries, err := readVecs(r, n, self)
		if err != nil {
			return err
		}
		entries[self] = need
		h := heldSES{id: id, tag: appendSES(nil, tm, entries)}
		if h.need, err = checkSES(h.tag, n, self); err != nil {
			return err
		}
		copy(needs.spare(), need)
		needs.keep()
		held = append(held, h)
	}
	if err := r.Close(); err != nil {
		return err
	}
	p.v, p.vm, p.held, p.needs = v, vm, held, needs
	return nil
}

// readVec reads one length-prefixed vector encoding of dimension n.
func readVec(r *snapio.Reader, n int) (vc.Vector, error) {
	v := vc.NewVector(n)
	if err := v.MergeEncoded(r.Next(r.Int())); err != nil {
		return nil, cmp.Or(r.Err(), err)
	}
	return v, nil
}

// readVecs reads a destination → vector map written in ascending
// destination order into a slice indexed by destination (nil where
// absent). Destinations are below n and never skip.
func readVecs(r *snapio.Reader, n, skip int) ([]vc.Vector, error) {
	vm := make([]vc.Vector, n)
	last := -1
	for range r.Count(2) {
		k := r.Int()
		if k <= last || k >= n || k == skip {
			return nil, cmp.Or(r.Err(), snapio.ErrCorrupt)
		}
		last = k
		v, err := readVec(r, n)
		if err != nil {
			return nil, err
		}
		vm[k] = v
	}
	return vm, r.Err()
}

// Snapshot encodes the delivery vector and held buffer (in arrival
// order — the drain scan is order-sensitive), held timestamps as the
// bytes they arrived as.
func (p *BSS) Snapshot() []byte {
	w := &p.snap
	w.Reset()
	p.enc = p.vcDel.AppendEncode(p.enc[:0])
	w.Bytes(p.enc)
	w.Int(len(p.held))
	for _, h := range p.held {
		w.Int(int(h.id))
		w.Int(int(h.from))
		w.Bytes(h.tag)
	}
	return w.Out()
}

// Restore rebuilds the state onto a freshly Init'd instance. Every
// vector must have dimension NumProcs and every count fit the bytes
// left.
func (p *BSS) Restore(b []byte) error {
	r := snapio.NewReader(b)
	n := p.env.NumProcs()
	vcDel, err := readVec(r, n)
	if err != nil {
		return err
	}
	var held []heldBSS
	stamps := rows{n: n}
	for range r.Count(3) {
		h := heldBSS{id: event.MsgID(r.Int()), from: event.ProcID(r.Int()), tag: r.Bytes()}
		if err := vc.Vector(stamps.spare()).MergeEncoded(h.tag); err != nil || !sender(h.from, n) {
			return cmp.Or(r.Err(), err, snapio.ErrCorrupt)
		}
		stamps.keep()
		held = append(held, h)
	}
	if err := r.Close(); err != nil {
		return err
	}
	p.vcDel, p.held, p.stamps = vcDel, held, stamps
	return nil
}
