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
