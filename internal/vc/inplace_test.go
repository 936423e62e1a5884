package vc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

func randomMatrix(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n)
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			m.Set(j, k, uint64(rng.Intn(300))) // one- and two-byte entries
		}
	}
	return m
}

// TestAppendEncodeMatchesEncode pins the wire bytes: appending into a
// kept buffer writes exactly what Encode returns, after whatever the
// buffer already holds.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	buf := []byte{0xAA}
	for range 20 {
		m := randomMatrix(rng, 1+rng.Intn(6))
		buf = m.AppendEncode(buf[:1])
		if buf[0] != 0xAA || !bytes.Equal(buf[1:], m.Encode()) {
			t.Fatalf("matrix AppendEncode = %x, want aa%x", buf, m.Encode())
		}
		v := Vector{uint64(rng.Intn(300)), 0, 1 << 40}
		buf = v.AppendEncode(buf[:1])
		if buf[0] != 0xAA || !bytes.Equal(buf[1:], v.Encode()) {
			t.Fatalf("vector AppendEncode = %x, want aa%x", buf, v.Encode())
		}
	}
}

func TestMatrixColumnAndMergeEncoded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for range 50 {
		n := 1 + rng.Intn(6)
		m := randomMatrix(rng, n)
		enc := m.Encode()
		col := make([]uint64, n)
		for k := 0; k < n; k++ {
			if err := MatrixColumn(col, enc, k); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < n; j++ {
				if col[j] != m.Get(j, k) {
					t.Fatalf("column %d of %v = %v", k, m, col)
				}
			}
		}
		into := randomMatrix(rng, n)
		want := into.Clone()
		want.Merge(m)
		if err := into.MergeEncoded(enc); err != nil {
			t.Fatal(err)
		}
		if !into.Equal(want) {
			t.Fatalf("MergeEncoded = %v, want %v", into, want)
		}
	}
}

// TestEncodedReadsRefuseHostileBytes: a tag of another dimension, one
// too short for its entries, one with bytes after it, or one whose
// entry overflows 64 bits is ErrDecode, and the target is untouched.
func TestEncodedReadsRefuseHostileBytes(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 2, 5)
	good := m.Encode()
	overflow := append([]byte{1}, bytes.Repeat([]byte{0xff}, 9)...)
	overflow = append(overflow, 0x02)
	bad := map[string][]byte{
		"empty":          nil,
		"zero dimension": {0x00},
		"2x2 at n=3":     NewMatrix(2).Encode(),
		"4x4 at n=3":     NewMatrix(4).Encode(),
		"truncated":      good[:len(good)-1],
		"trailing":       append(bytes.Clone(good), 0),
		"open varint":    append(bytes.Clone(good[:len(good)-1]), 0x80),
		"huge dimension": binary.AppendUvarint(nil, 1<<40),
		"overlong entry": append(bytes.Clone(good[:len(good)-1]), 0x80, 0x00),
		"overlong size":  append([]byte{0x83, 0x00}, good[1:]...),
	}
	for name, b := range bad {
		col := []uint64{7, 7, 7}
		if err := MatrixColumn(col, b, 2); !errors.Is(err, ErrDecode) {
			t.Errorf("%s: MatrixColumn err = %v", name, err)
		}
		if col[0] != 7 || col[1] != 7 || col[2] != 7 {
			t.Errorf("%s: MatrixColumn wrote %v on error", name, col)
		}
		into := NewMatrix(3)
		if err := into.MergeEncoded(b); !errors.Is(err, ErrDecode) {
			t.Errorf("%s: MergeEncoded err = %v", name, err)
		}
		if !into.Equal(NewMatrix(3)) {
			t.Errorf("%s: MergeEncoded wrote %v on error", name, into)
		}
	}
	if err := MatrixColumn(make([]uint64, 3), good, 3); !errors.Is(err, ErrDecode) {
		t.Errorf("column out of range: err = %v", err)
	}
	if err := (Vector{0}).MergeEncoded(overflow); !errors.Is(err, ErrDecode) {
		t.Errorf("overflowing entry: err = %v", err)
	}
	if _, err := DecodeVector(overflow); !errors.Is(err, ErrDecode) {
		t.Errorf("DecodeVector of an overflowing entry: err = %v", err)
	}
	if _, err := DecodeVector([]byte{1, 0x80, 0x00}); !errors.Is(err, ErrDecode) {
		t.Errorf("DecodeVector of an overlong entry: err = %v", err)
	}
}

func TestSplitVector(t *testing.T) {
	a, b := Vector{1, 200, 3}, Vector{0, 0, 1 << 33}
	enc := b.AppendEncode(a.Encode())
	got, rest, err := SplitVector(enc, 3)
	if err != nil || !bytes.Equal(got, a.Encode()) || !bytes.Equal(rest, b.Encode()) {
		t.Fatalf("SplitVector = %x, %x, %v", got, rest, err)
	}
	if cap(got) != len(got) {
		t.Errorf("split encoding has capacity %d, want its length %d", cap(got), len(got))
	}
	v := NewVector(3)
	if err := v.MergeEncoded(rest); err != nil || !v.LessEq(b) || !b.LessEq(v) {
		t.Fatalf("MergeEncoded = %v, %v; want %v", v, err, b)
	}
	for _, bad := range [][]byte{nil, {2, 1, 1}, {3, 1, 1}, {3, 1, 0x80}, {3, 1, 0x80, 0x00, 1}} {
		if _, _, err := SplitVector(bad, 3); !errors.Is(err, ErrDecode) {
			t.Errorf("SplitVector(%x) err = %v", bad, err)
		}
	}
	if err := v.MergeEncoded(enc); !errors.Is(err, ErrDecode) {
		t.Errorf("MergeEncoded with a second vector after it: err = %v", err)
	}
}

// TestHostileDimensionAllocatesNothing: a two-byte encoding that claims
// a large dimension is refused before anything is sized by it.
func TestHostileDimensionAllocatesNothing(t *testing.T) {
	b := binary.AppendUvarint(nil, 1000) // a 1000×1000 matrix, in 2 bytes
	if avg := testing.AllocsPerRun(10, func() {
		if _, err := DecodeMatrix(b); err == nil {
			t.Fatal("accepted")
		}
		if _, err := DecodeVector(b); err == nil {
			t.Fatal("accepted")
		}
	}); avg != 0 {
		t.Errorf("hostile dimension allocates %.0f times, want 0", avg)
	}
}

// FuzzMatrixColumn checks the in-place reads against DecodeMatrix: for
// any bytes and any expected dimension they accept exactly what decodes
// to a matrix of that dimension, and read the same entries.
func FuzzMatrixColumn(f *testing.F) {
	f.Add([]byte{0x00}, 3)
	f.Add(NewMatrix(2).Encode(), 3)
	f.Add(randomMatrix(rand.New(rand.NewSource(1)), 3).Encode(), 3)
	f.Fuzz(func(t *testing.T, b []byte, n int) {
		n = 1 + (n&0x7fffffff)%8
		want, derr := DecodeMatrix(b)
		ok := derr == nil && want.N() == n
		col := make([]uint64, n)
		err := MatrixColumn(col, b, n-1)
		if (err == nil) != ok {
			t.Fatalf("MatrixColumn(%x, n=%d) err = %v; DecodeMatrix err = %v", b, n, err, derr)
		}
		into := NewMatrix(n)
		if err := into.MergeEncoded(b); (err == nil) != ok {
			t.Fatalf("MergeEncoded(%x, n=%d) err = %v; DecodeMatrix err = %v", b, n, err, derr)
		}
		if !ok {
			return
		}
		if !into.Equal(want) {
			t.Fatalf("MergeEncoded into zero = %v, want %v", into, want)
		}
		for j := range col {
			if col[j] != want.Get(j, n-1) {
				t.Fatalf("column = %v, matrix %v", col, want)
			}
		}
	})
}
