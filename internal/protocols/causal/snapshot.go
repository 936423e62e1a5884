package causal

import (
	"sort"

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
// order-sensitive, so order IS state.
func (p *RST) Snapshot() []byte {
	w := &p.snap
	w.Reset()
	w.Bytes(p.m.Encode())
	w.Int(len(p.del))
	for _, d := range p.del {
		w.U64(d)
	}
	w.Int(len(p.held))
	for _, h := range p.held {
		w.Int(int(h.id))
		w.Int(int(h.from))
		w.Bytes(h.tag.Encode())
	}
	return w.Out()
}

// Restore rebuilds the state onto a freshly Init'd instance.
func (p *RST) Restore(b []byte) error {
	r := snapio.NewReader(b)
	m, err := vc.DecodeMatrix(r.Bytes())
	if err != nil {
		return err
	}
	del := make([]uint64, r.Int())
	for i := range del {
		del[i] = r.U64()
	}
	var held []heldRST
	for i, n := 0, r.Int(); i < n; i++ {
		h := heldRST{id: event.MsgID(r.Int()), from: event.ProcID(r.Int())}
		if h.tag, err = vc.DecodeMatrix(r.Bytes()); err != nil {
			return err
		}
		held = append(held, h)
	}
	if err := r.Close(); err != nil {
		return err
	}
	p.m, p.del, p.held = m, del, held
	return nil
}

// Snapshot encodes the vector clock, per-destination send knowledge and
// held buffer (in arrival order — the drain scan is order-sensitive).
func (p *SES) Snapshot() []byte {
	w := &p.snap
	w.Reset()
	w.Bytes(p.v.Encode())
	writeVecMap(w, p.vm)
	w.Int(len(p.held))
	for _, h := range p.held {
		w.Int(int(h.id))
		w.Bytes(h.tm.Encode())
		w.Bool(h.need != nil)
		if h.need != nil {
			w.Bytes(h.need.Encode())
		}
		writeVecMap(w, h.rest)
	}
	return w.Out()
}

// Restore rebuilds the state onto a freshly Init'd instance.
func (p *SES) Restore(b []byte) error {
	r := snapio.NewReader(b)
	v, err := vc.DecodeVector(r.Bytes())
	if err != nil {
		return err
	}
	vm, err := readVecMap(r)
	if err != nil {
		return err
	}
	var held []heldSES
	for i, n := 0, r.Int(); i < n; i++ {
		h := heldSES{id: event.MsgID(r.Int())}
		if h.tm, err = vc.DecodeVector(r.Bytes()); err != nil {
			return err
		}
		if r.Bool() {
			if h.need, err = vc.DecodeVector(r.Bytes()); err != nil {
				return err
			}
		}
		if h.rest, err = readVecMap(r); err != nil {
			return err
		}
		held = append(held, h)
	}
	if err := r.Close(); err != nil {
		return err
	}
	p.v, p.vm, p.held = v, vm, held
	return nil
}

// Snapshot encodes the delivery vector and held buffer (in arrival
// order — the drain scan is order-sensitive).
func (p *BSS) Snapshot() []byte {
	w := &p.snap
	w.Reset()
	w.Bytes(p.vcDel.Encode())
	w.Int(len(p.held))
	for _, h := range p.held {
		w.Int(int(h.id))
		w.Int(int(h.from))
		w.Bytes(h.tag.Encode())
	}
	return w.Out()
}

// Restore rebuilds the state onto a freshly Init'd instance.
func (p *BSS) Restore(b []byte) error {
	r := snapio.NewReader(b)
	vcDel, err := vc.DecodeVector(r.Bytes())
	if err != nil {
		return err
	}
	var held []heldBSS
	for i, n := 0, r.Int(); i < n; i++ {
		h := heldBSS{id: event.MsgID(r.Int()), from: event.ProcID(r.Int())}
		if h.tag, err = vc.DecodeVector(r.Bytes()); err != nil {
			return err
		}
		held = append(held, h)
	}
	if err := r.Close(); err != nil {
		return err
	}
	p.vcDel, p.held = vcDel, held
	return nil
}

// writeVecMap encodes a proc→vector map in ascending key order.
func writeVecMap(w *snapio.Writer, m map[event.ProcID]vc.Vector) {
	w.Int(len(m))
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	for _, k := range keys {
		w.Int(k)
		w.Bytes(m[event.ProcID(k)].Encode())
	}
}

func readVecMap(r *snapio.Reader) (map[event.ProcID]vc.Vector, error) {
	m := make(map[event.ProcID]vc.Vector)
	for i, n := 0, r.Int(); i < n; i++ {
		k := event.ProcID(r.Int())
		v, err := vc.DecodeVector(r.Bytes())
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}
