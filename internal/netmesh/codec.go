// Wire format for the peer mesh: length-prefixed frames over a TCP
// stream. Every frame is a uvarint byte length followed by a payload
// whose first byte is the frame kind. Payload fields use the same
// varint conventions as internal/snapio, so the codec stays dependency-
// free and deterministic. The envelope encoding carries every field of
// transport.Envelope including the protocol wire's observability
// vector-clock stamp (Wire.VC), so causal traces keep working across
// OS processes.
package netmesh

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/snapio"
	"msgorder/internal/transport"
)

// Frame kinds.
const (
	frameHello    byte = 1 // handshake: who am I, what am I running
	frameWelcome  byte = 2 // handshake accepted by the listener
	frameReject   byte = 3 // handshake refused (fingerprint/id mismatch)
	frameEnvelope byte = 4 // one transport.Envelope
	frameBatch    byte = 5 // a count-prefixed run of transport.Envelopes
)

// maxFrame bounds a frame payload; anything larger is treated as a
// corrupt stream and the connection is dropped.
const maxFrame = 1 << 20

// helloMagic opens every handshake payload so a stray client speaking
// the wrong protocol is refused immediately. Bumped whenever the
// envelope encoding changes (momesh2: ordering-key field, momesh3:
// multiplexed-channel ID, momesh4: header-only control envelopes), so an
// old peer is refused at the handshake instead of misparsing frames.
const helloMagic = "momesh4"

// errCorruptFrame reports a malformed frame payload.
var errCorruptFrame = errors.New("netmesh: corrupt frame")

// maxBatch bounds the envelopes one batch frame may carry, so a
// corrupt count can't provoke a huge allocation.
const maxBatch = 1 << 12

// PoolStats counts codec buffer-pool traffic: Gets is every encoder
// checkout on the hot send path, Misses is the subset that had to
// allocate because the pool was empty. A high hit rate means the
// steady-state encode path is allocation-free.
type PoolStats struct {
	// Gets counts encoder checkouts.
	Gets uint64
	// Misses counts checkouts that allocated a fresh encoder.
	Misses uint64
}

var (
	poolGets   atomic.Uint64
	poolMisses atomic.Uint64
	encPool    = sync.Pool{New: func() any {
		poolMisses.Add(1)
		return new(snapio.Writer)
	}}
)

// CodecPoolStats returns process-wide codec buffer-pool tallies
// (the pool is shared by every Mesh in the process).
func CodecPoolStats() PoolStats {
	return PoolStats{Gets: poolGets.Load(), Misses: poolMisses.Load()}
}

// getEncoder checks a reusable frame encoder out of the pool.
func getEncoder() *snapio.Writer {
	poolGets.Add(1)
	w := encPool.Get().(*snapio.Writer)
	w.Reset()
	return w
}

// putEncoder returns an encoder to the pool. The caller must be done
// with every slice obtained from w.Out().
func putEncoder(w *snapio.Writer) { encPool.Put(w) }

// hello is the handshake exchanged on every new connection: the dialer
// sends it, the listener validates and answers with welcome or reject.
type hello struct {
	Proc        event.ProcID
	N           int
	Fingerprint string
}

// writeFrame sends one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("netmesh: frame of %d bytes exceeds limit", len(payload))
	}
	hdr := binary.AppendUvarint(nil, uint64(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame.
func readFrame(r *bufio.Reader) ([]byte, error) {
	return readFrameInto(r, nil)
}

// readFrameInto reads one length-prefixed frame into buf (grown as
// needed) and returns the payload, which aliases buf. Reusing buf
// across frames keeps the steady-state read path allocation-free; it is
// safe because the decoders copy every variable-length field out.
func readFrameInto(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d-byte frame", errCorruptFrame, n)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// encodeHello builds a hello frame payload.
func encodeHello(h hello) []byte {
	var w snapio.Writer
	w.Byte(frameHello)
	w.Bytes([]byte(helloMagic))
	w.Int(int(h.Proc))
	w.Int(h.N)
	w.Bytes([]byte(h.Fingerprint))
	return w.Out()
}

// decodeHello parses a hello frame payload (kind byte included).
func decodeHello(b []byte) (hello, error) {
	r := snapio.NewReader(b)
	if r.Byte() != frameHello {
		return hello{}, errCorruptFrame
	}
	if string(r.Bytes()) != helloMagic {
		return hello{}, fmt.Errorf("%w: bad magic", errCorruptFrame)
	}
	h := hello{
		Proc: event.ProcID(r.Int()),
		N:    r.Int(),
	}
	h.Fingerprint = string(r.Bytes())
	if err := r.Close(); err != nil {
		return hello{}, err
	}
	return h, nil
}

// encodeWelcome builds the listener's handshake acceptance frame.
func encodeWelcome() []byte { return []byte{frameWelcome} }

// encodeReject builds a reject frame carrying the refusal reason.
func encodeReject(reason string) []byte {
	var w snapio.Writer
	w.Byte(frameReject)
	w.Bytes([]byte(reason))
	return w.Out()
}

// decodeReject extracts the refusal reason from a reject frame,
// tolerating corruption (the connection is dying anyway).
func decodeReject(b []byte) string {
	r := snapio.NewReader(b)
	if r.Byte() != frameReject {
		return "unreadable reject"
	}
	reason := string(r.Bytes())
	if r.Err() != nil || reason == "" {
		return "unreadable reject"
	}
	return reason
}

// encodeEnvelopeBody appends one envelope's field encoding (no frame
// kind byte) to w. Only a Data envelope has a Wire; an Ack or Beat is
// its header alone, and ends after Attempt.
func encodeEnvelopeBody(w *snapio.Writer, e transport.Envelope) {
	w.Int(int(e.Src))
	w.Int(int(e.Dst))
	w.Byte(byte(e.Kind))
	w.U64(uint64(e.Chan))
	w.U64(e.Seq)
	w.U64(e.Cum)
	w.Int(e.Attempt)
	if e.Kind != transport.Data {
		return
	}
	w.Int(int(e.Wire.From))
	w.Int(int(e.Wire.To))
	w.Byte(byte(e.Wire.Kind))
	w.Int(int(e.Wire.Msg))
	w.Byte(byte(e.Wire.Color))
	w.Byte(e.Wire.Ctrl)
	w.U64(uint64(e.Wire.Key))
	w.Bytes(e.Wire.Tag)
	w.Int(len(e.Wire.VC))
	for _, c := range e.Wire.VC {
		w.U64(c)
	}
}

// vcChunk is how many counters a fresh VC chunk of a connection's
// decode arena holds, unless one stamp needs more.
const vcChunk = 1024

// connArena is the storage a connection carves decoded envelopes'
// variable-length fields from, kept for the life of the connection so
// one allocation is amortized over many envelopes however few each
// frame carries. Like tags, VC stamps are capped and never recycled: a
// chunk stays alive while any stamp carved from it does, and the arena
// simply moves on to a fresh chunk.
type connArena struct {
	vc   []uint64 // the current VC chunk's uncarved tail
	tags protocol.TagArena
}

// stamp carves an n-counter VC stamp from the arena.
func (a *connArena) stamp(n int) []uint64 {
	if len(a.vc) < n {
		a.vc = make([]uint64, max(n, vcChunk))
	}
	v := a.vc[:n:n]
	a.vc = a.vc[n:]
	return v
}

// decodeEnvelopeBody parses one envelope's fields off r. The result
// never aliases the input buffer (Tag and VC are carved from a, see
// connArena), so frame read buffers can be reused. A VC count is
// checked against the bytes left before anything is sized by it: each
// counter takes at least one byte.
func decodeEnvelopeBody(r *snapio.Reader, a *connArena) (transport.Envelope, error) {
	var e transport.Envelope
	e.Src = event.ProcID(r.Int())
	e.Dst = event.ProcID(r.Int())
	e.Kind = transport.Kind(r.Byte())
	e.Chan = uint32(r.U64())
	e.Seq = r.U64()
	e.Cum = r.U64()
	e.Attempt = r.Int()
	if e.Kind == transport.Data {
		e.Wire.From = event.ProcID(r.Int())
		e.Wire.To = event.ProcID(r.Int())
		e.Wire.Kind = protocol.WireKind(r.Byte())
		e.Wire.Msg = event.MsgID(r.Int())
		e.Wire.Color = event.Color(r.Byte())
		e.Wire.Ctrl = r.Byte()
		e.Wire.Key = event.Key(r.U64())
		e.Wire.Tag = a.tags.Copy(r.Next(r.Int()))
		if n := r.Count(1); n > 0 {
			e.Wire.VC = a.stamp(n)
			for i := range e.Wire.VC {
				e.Wire.VC[i] = r.U64()
			}
		}
	}
	if err := r.Err(); err != nil {
		return transport.Envelope{}, fmt.Errorf("%w: %w", errCorruptFrame, err)
	}
	return e, nil
}

// encodeEnvelope builds a single-envelope frame payload.
func encodeEnvelope(e transport.Envelope) []byte {
	var w snapio.Writer
	w.Byte(frameEnvelope)
	encodeEnvelopeBody(&w, e)
	return w.Out()
}

// decodeEnvelope parses an envelope frame payload (kind byte included),
// carving its tag and any VC stamp from a.
func decodeEnvelope(b []byte, a *connArena) (transport.Envelope, error) {
	r := snapio.NewReader(b)
	if r.Byte() != frameEnvelope {
		return transport.Envelope{}, errCorruptFrame
	}
	e, err := decodeEnvelopeBody(r, a)
	if err != nil {
		return transport.Envelope{}, err
	}
	if err := r.Close(); err != nil {
		return transport.Envelope{}, err
	}
	return e, nil
}

// encodeBatch appends a batch frame payload (count-prefixed envelope
// run) into w, which the caller typically checked out of the encoder
// pool. The returned slice aliases w's buffer — consume it before
// putEncoder.
func encodeBatch(w *snapio.Writer, envs []transport.Envelope) []byte {
	w.Reset()
	w.Byte(frameBatch)
	w.Int(len(envs))
	for _, e := range envs {
		encodeEnvelopeBody(w, e)
	}
	return w.Out()
}

// decodeBatch parses a batch frame payload (kind byte included),
// appending its envelopes to dst — the connection's kept slice, passed
// as dst[:0] — and returns the extended slice. The envelopes never
// alias b (see decodeEnvelopeBody); tags and VC stamps are carved from a.
func decodeBatch(dst []transport.Envelope, b []byte, a *connArena) ([]transport.Envelope, error) {
	r := snapio.NewReader(b)
	if r.Byte() != frameBatch {
		return nil, errCorruptFrame
	}
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n <= 0 || n > maxBatch {
		return nil, fmt.Errorf("%w: %d-envelope batch", errCorruptFrame, n)
	}
	for i := 0; i < n; i++ {
		e, err := decodeEnvelopeBody(r, a)
		if err != nil {
			return dst, err
		}
		dst = append(dst, e)
	}
	return dst, r.Close()
}
