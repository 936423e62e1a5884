package snapio

import (
	"bytes"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U64(0)
	w.U64(300)
	w.U64(1 << 60)
	w.Int(42)
	w.Byte(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.Bytes([]byte("payload"))
	w.Bytes(nil)

	r := NewReader(w.Out())
	if got := r.U64(); got != 0 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.U64(); got != 300 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.Int(); got != 42 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.Byte(); got != 0xAB {
		t.Fatalf("Byte = %x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round-trip failed")
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Bytes = %q", got)
	}
	if got := r.Bytes(); got != nil {
		t.Fatalf("empty Bytes = %v, want nil", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderErrors(t *testing.T) {
	r := NewReader([]byte{0x80}) // truncated varint
	r.U64()
	if r.Err() == nil {
		t.Fatal("truncated varint not flagged")
	}
	// Errors are sticky: further reads stay zero.
	if r.U64() != 0 || r.Byte() != 0 || r.Bytes() != nil {
		t.Fatal("reads after error returned data")
	}

	r = NewReader([]byte{5, 1, 2}) // Bytes length overruns input
	if r.Bytes() != nil || r.Err() == nil {
		t.Fatal("overrun Bytes not flagged")
	}

	r = NewReader([]byte{1, 7, 9})
	r.Byte()
	if err := r.Close(); err == nil {
		t.Fatal("trailing bytes not flagged")
	}
}

func TestWriterPanicsOnNegativeInt(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Int did not panic")
		}
	}()
	var w Writer
	w.Int(-1)
}

// TestResetKeepsBuffer pins the reuse every kept Writer relies on: an
// encoding no longer than an earlier one, written after Reset, lands in
// the same backing array.
func TestResetKeepsBuffer(t *testing.T) {
	var w Writer
	w.Bytes(make([]byte, 300))
	first := w.Out()
	w.Reset()
	w.Int(7)
	w.Bytes(make([]byte, 200))
	if got := w.Out(); &got[0] != &first[0] || len(got) != 1+2+200 {
		t.Fatalf("after Reset: %d bytes, same backing array %v", len(got), &got[0] == &first[0])
	}
}

// TestNextAliasesAndCountBoundsByBytesLeft: Next lends the encoding's
// own bytes, capped so an append cannot reach the next field, under the
// same overrun check Bytes makes; Count refuses a count the bytes left
// cannot hold before anything is sized by it.
func TestNextAliasesAndCountBoundsByBytesLeft(t *testing.T) {
	enc := []byte{3, 'a', 'b', 'c', 9}
	r := NewReader(enc)
	got := r.Next(r.Int())
	if string(got) != "abc" || &got[0] != &enc[1] || cap(got) != 3 {
		t.Fatalf("Next = %q (cap %d), want the encoding's own \"abc\" capped", got, cap(got))
	}
	if r.Byte() != 9 || r.Close() != nil {
		t.Fatal("Next did not advance past its bytes")
	}
	if r := NewReader([]byte{1, 2}); r.Next(3) != nil || r.Err() == nil {
		t.Fatal("overrun Next not flagged")
	}

	// Three 8-byte elements fit in 24 bytes left; a fourth does not.
	ok := append([]byte{3}, make([]byte, 24)...)
	if r := NewReader(ok); r.Count(8) != 3 || r.Err() != nil {
		t.Fatalf("Count(8) over 24 bytes: err %v", r.Err())
	}
	if r := NewReader(append([]byte{4}, make([]byte, 24)...)); r.Count(8) != 0 || r.Err() == nil {
		t.Fatal("a count the bytes left cannot hold was not flagged")
	}
	// A huge count in a tiny input fails instead of returning it.
	if r := NewReader([]byte{0xff, 0xff, 0xff, 0x07, 0}); r.Count(1) != 0 || r.Err() == nil {
		t.Fatal("huge count not flagged")
	}
}
