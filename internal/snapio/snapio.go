// Package snapio provides the tiny binary codec shared by protocol
// state snapshots (protocol.Snapshotter). Snapshots must be
// deterministic — the same state always encodes to the same bytes, so
// crash recovery can be verified by re-encoding — which is why the
// helpers here force explicit, sorted traversal of maps at the call
// site and the Reader accumulates a single error instead of panicking
// on truncated input.
package snapio

import (
	"errors"
	"fmt"
)

// ErrCorrupt reports a malformed snapshot encoding.
var ErrCorrupt = errors.New("snapio: corrupt snapshot encoding")

// Writer accumulates a snapshot encoding.
type Writer struct {
	buf []byte
}

// U64 appends an unsigned varint.
func (w *Writer) U64(v uint64) {
	for v >= 0x80 {
		w.buf = append(w.buf, byte(v)|0x80)
		v >>= 7
	}
	w.buf = append(w.buf, byte(v))
}

// Int appends a non-negative int as a varint.
func (w *Writer) Int(v int) {
	if v < 0 {
		panic(fmt.Sprintf("snapio: negative Int %d", v))
	}
	w.U64(uint64(v))
}

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.Int(len(b))
	w.buf = append(w.buf, b...)
}

// Out returns the accumulated encoding.
func (w *Writer) Out() []byte { return w.buf }

// Reset truncates the writer for reuse, keeping the backing buffer, so
// an encoder that keeps its Writer allocates only when an encoding
// outgrows every earlier one. It is the one idiom of every encode path
// that runs more than once: the mesh's pooled frame codec and every
// Snapshot or SnapshotState, whose returned Out stays valid until the
// owner's next Reset.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Reader decodes a snapshot encoding. Methods keep returning zero
// values after the first error; check Err (or Close) once at the end.
type Reader struct {
	b   []byte
	err error
}

// NewReader wraps an encoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	for i := 0; ; i++ {
		if i >= len(r.b) || i > 9 {
			r.err = ErrCorrupt
			return 0
		}
		b := r.b[i]
		v |= uint64(b&0x7F) << (7 * i)
		if b < 0x80 {
			r.b = r.b[i+1:]
			return v
		}
	}
}

// Int reads a non-negative int.
func (r *Reader) Int() int {
	v := r.U64()
	if v > 1<<31 {
		r.err = ErrCorrupt
		return 0
	}
	return int(v)
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.err = ErrCorrupt
		return 0
	}
	b := r.b[0]
	r.b = r.b[1:]
	return b
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Bytes reads a length-prefixed byte string (nil for length zero).
func (r *Reader) Bytes() []byte {
	return append([]byte(nil), r.Next(r.Int())...)
}

// Next reads the next n raw bytes without copying them: the result
// aliases the encoding, so a caller that keeps it past the encoding's
// lifetime copies it. It is nil for n zero or after an error.
func (r *Reader) Next(n int) []byte {
	if r.err != nil || n == 0 {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = ErrCorrupt
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

// Count reads an element count and checks it against the bytes left:
// each element takes at least minSize bytes (≥ 1), so a count the rest
// of the encoding cannot hold fails before the caller sizes anything by
// it.
func (r *Reader) Count(minSize int) int {
	n := r.Int()
	if r.err == nil && n > len(r.b)/minSize {
		r.err = ErrCorrupt
		return 0
	}
	return n
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Close verifies the encoding was fully consumed without errors.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.b))
	}
	return nil
}
