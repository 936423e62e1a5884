// Package vc implements the logical clocks used by tagged message-ordering
// protocols: Lamport scalar clocks, vector clocks, and the n×n matrix
// clocks of Raynal, Schiper and Toueg — the machinery the paper cites as
// the witness that causal ordering needs only tagging ([20, 21]).
//
// All clocks serialize to compact byte strings with encoding/binary so
// protocols can account tag overhead in bytes: a length prefix, then
// one uvarint per entry (a matrix's prefix is its dimension n, then n²
// entries row by row). AppendEncode writes that encoding into a buffer
// the caller keeps.
//
// A tag arriving from a peer is read where it lies. SplitVector,
// MatrixColumn and the MergeEncoded methods validate an encoding
// against the dimension the reader expects — the protocol's NumProcs —
// and read it in place: a tag of another dimension, one too short for
// its entries, one with bytes left over, or one with a uvarint longer
// than its value needs is ErrDecode, never a panic, and nothing is
// allocated, let alone sized by a count in the input. Since every clock
// has exactly one encoding, bytes held in place are the bytes a decode
// and re-encode would give. That is the tag contract of the causal
// protocols: a receiver validates a tag against NumProcs, holds it as
// the bytes it arrived as, and never decodes it into a Vector or
// Matrix.
package vc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// ErrDecode reports a malformed clock encoding.
var ErrDecode = errors.New("vc: malformed clock encoding")

// Lamport is a scalar logical clock. The zero value is ready to use.
type Lamport struct {
	t uint64
}

// Time returns the current clock value.
func (l *Lamport) Time() uint64 { return l.t }

// Tick advances the clock for a local event and returns the new value.
func (l *Lamport) Tick() uint64 {
	l.t++
	return l.t
}

// Observe merges a received timestamp and ticks, per Lamport's rule.
func (l *Lamport) Observe(remote uint64) uint64 {
	if remote > l.t {
		l.t = remote
	}
	return l.Tick()
}

// Set overwrites the clock value. It exists for crash recovery: a
// restored process resumes from its snapshotted timestamp rather than
// restarting at zero (which would break the total order already agreed
// with its peers).
func (l *Lamport) Set(t uint64) { l.t = t }

// Vector is a vector clock over n processes.
type Vector []uint64

// NewVector returns a zeroed vector clock for n processes.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Tick increments the component of process i.
func (v Vector) Tick(i int) { v[i]++ }

// Merge sets v to the componentwise maximum of v and o.
func (v Vector) Merge(o Vector) {
	for i := range v {
		if i < len(o) && o[i] > v[i] {
			v[i] = o[i]
		}
	}
}

// LessEq reports v ≤ o componentwise.
func (v Vector) LessEq(o Vector) bool {
	for i := range v {
		var oi uint64
		if i < len(o) {
			oi = o[i]
		}
		if v[i] > oi {
			return false
		}
	}
	return true
}

// Less reports v ≤ o and v ≠ o (the happened-before order on vector
// timestamps).
func (v Vector) Less(o Vector) bool {
	return v.LessEq(o) && !o.LessEq(v)
}

// Concurrent reports that neither vector dominates the other.
func (v Vector) Concurrent(o Vector) bool {
	return !v.LessEq(o) && !o.LessEq(v)
}

// String renders the vector as "[1 0 2]".
func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprint(x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Encode serializes the vector (length-prefixed varints).
func (v Vector) Encode() []byte { return v.AppendEncode(nil) }

// AppendEncode appends the vector's encoding (Encode's bytes) to dst.
func (v Vector) AppendEncode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = binary.AppendUvarint(dst, x)
	}
	return dst
}

// DecodeVector parses an encoded vector clock.
func DecodeVector(b []byte) (Vector, error) {
	n, k := uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) { // each entry takes a byte
		return nil, ErrDecode
	}
	b = b[k:]
	v := make(Vector, n)
	for i := range v {
		x, k := uvarint(b)
		if k <= 0 {
			return nil, ErrDecode
		}
		v[i] = x
		b = b[k:]
	}
	if len(b) != 0 {
		return nil, ErrDecode
	}
	return v, nil
}

// Matrix is an n×n matrix clock: M[j][k] is the owner's knowledge of how
// many messages process j has sent to process k.
type Matrix struct {
	n int
	m []uint64 // row-major
}

// NewMatrix returns a zeroed n×n matrix clock.
func NewMatrix(n int) *Matrix {
	return &Matrix{n: n, m: make([]uint64, n*n)}
}

// N returns the dimension.
func (mx *Matrix) N() int { return mx.n }

// Get returns M[j][k].
func (mx *Matrix) Get(j, k int) uint64 { return mx.m[j*mx.n+k] }

// Set assigns M[j][k].
func (mx *Matrix) Set(j, k int, v uint64) { mx.m[j*mx.n+k] = v }

// Incr increments M[j][k] and returns the new value.
func (mx *Matrix) Incr(j, k int) uint64 {
	mx.m[j*mx.n+k]++
	return mx.m[j*mx.n+k]
}

// Clone returns a deep copy.
func (mx *Matrix) Clone() *Matrix {
	c := NewMatrix(mx.n)
	copy(c.m, mx.m)
	return c
}

// Merge sets the matrix to the entrywise maximum with o.
func (mx *Matrix) Merge(o *Matrix) {
	if o == nil || o.n != mx.n {
		return
	}
	for i, x := range o.m {
		if x > mx.m[i] {
			mx.m[i] = x
		}
	}
}

// Equal reports entrywise equality.
func (mx *Matrix) Equal(o *Matrix) bool {
	if o == nil || o.n != mx.n {
		return false
	}
	for i := range mx.m {
		if mx.m[i] != o.m[i] {
			return false
		}
	}
	return true
}

// String renders the matrix row by row.
func (mx *Matrix) String() string {
	var b strings.Builder
	b.WriteString("[")
	for j := 0; j < mx.n; j++ {
		if j > 0 {
			b.WriteString("; ")
		}
		for k := 0; k < mx.n; k++ {
			if k > 0 {
				b.WriteString(" ")
			}
			fmt.Fprint(&b, mx.Get(j, k))
		}
	}
	b.WriteString("]")
	return b.String()
}

// Encode serializes the matrix (dimension prefix plus varints).
func (mx *Matrix) Encode() []byte { return mx.AppendEncode(nil) }

// AppendEncode appends the matrix's encoding (Encode's bytes) to dst.
func (mx *Matrix) AppendEncode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(mx.n))
	for _, x := range mx.m {
		dst = binary.AppendUvarint(dst, x)
	}
	return dst
}

// DecodeMatrix parses an encoded matrix clock.
func DecodeMatrix(b []byte) (*Matrix, error) {
	n64, k := uvarint(b)
	if k <= 0 || n64 > 1<<10 || n64*n64 > uint64(len(b)-k) { // each entry takes a byte
		return nil, ErrDecode
	}
	b = b[k:]
	n := int(n64)
	mx := NewMatrix(n)
	for i := range mx.m {
		x, k := uvarint(b)
		if k <= 0 {
			return nil, ErrDecode
		}
		mx.m[i] = x
		b = b[k:]
	}
	if len(b) != 0 {
		return nil, ErrDecode
	}
	return mx, nil
}

// MergeEncoded sets the matrix to the entrywise maximum with the
// encoded matrix b, read in place. b must encode a matrix of the same
// dimension, with nothing after it; otherwise MergeEncoded returns
// ErrDecode and leaves the matrix as it was.
func (mx *Matrix) MergeEncoded(b []byte) error {
	body, err := entries(b, mx.n, mx.n*mx.n)
	if err != nil {
		return err
	}
	mergeBody(mx.m, body)
	return nil
}

// MatrixColumn reads column k of the encoded n×n matrix b into col,
// where n = len(col): col[j] = M[j][k]. b must encode a matrix of
// dimension n with nothing after it; otherwise MatrixColumn returns
// ErrDecode and leaves col as it was. It reads b in place and allocates
// nothing.
func MatrixColumn(col []uint64, b []byte, k int) error {
	n := len(col)
	if k < 0 || k >= n {
		return ErrDecode
	}
	body, err := entries(b, n, n*n)
	if err != nil {
		return err
	}
	for j := range col {
		for i := 0; i < n; i++ {
			x, w := binary.Uvarint(body)
			body = body[w:]
			if i == k {
				col[j] = x
			}
		}
	}
	return nil
}

// SplitVector validates the encoded vector of dimension n at the front
// of b and returns its encoding and the bytes after it, both aliasing
// b.
func SplitVector(b []byte, n int) (enc, rest []byte, err error) {
	d, k := uvarint(b)
	if k <= 0 || d != uint64(n) {
		return nil, nil, ErrDecode
	}
	end := k
	for range n {
		_, w := uvarint(b[end:])
		if w <= 0 {
			return nil, nil, ErrDecode
		}
		end += w
	}
	return b[:end:end], b[end:], nil
}

// MergeEncoded sets v to the componentwise maximum of v and the encoded
// vector b, read in place (a zeroed v thus decodes b into v). b must
// encode a vector of v's length, with nothing after it; otherwise
// MergeEncoded returns ErrDecode and leaves v as it was.
func (v Vector) MergeEncoded(b []byte) error {
	body, err := entries(b, len(v), len(v))
	if err != nil {
		return err
	}
	mergeBody(v, body)
	return nil
}

// entries checks that b is the dimension prefix n followed by exactly
// count uvarints, and returns those entries' bytes.
func entries(b []byte, n, count int) ([]byte, error) {
	d, k := uvarint(b)
	if k <= 0 || d != uint64(n) {
		return nil, ErrDecode
	}
	b = b[k:]
	if !varints(b, count) {
		return nil, ErrDecode
	}
	return b, nil
}

// uvarint is binary.Uvarint restricted to the shortest encoding of
// each value, the one binary.AppendUvarint writes: a longer one (a
// final 0x00 after a continuation byte) fails like a truncated one, so
// every clock has exactly one encoding and bytes held in place re-encode
// to themselves.
func uvarint(b []byte) (uint64, int) {
	x, k := binary.Uvarint(b)
	if k > 1 && b[k-1] == 0 {
		return 0, -k
	}
	return x, k
}

// varints reports whether b holds exactly count uvarints that uvarint
// accepts, and nothing else.
func varints(b []byte, count int) bool {
	if len(b) < count {
		return false
	}
	run := 0 // bytes of the current uvarint so far
	for _, c := range b {
		run++
		if run == binary.MaxVarintLen64 && c > 1 {
			return false // overflows 64 bits
		}
		if c < 0x80 {
			if c == 0 && run > 1 {
				return false // not the shortest encoding
			}
			count--
			run = 0
		}
	}
	return count == 0 && run == 0
}

// mergeBody raises each entry of m to the matching uvarint of body,
// which varints has checked holds len(m) of them.
func mergeBody(m []uint64, body []byte) {
	for i := range m {
		x, w := binary.Uvarint(body)
		body = body[w:]
		if x > m[i] {
			m[i] = x
		}
	}
}
