// Package codec is the serialization substrate YGM uses for
// variable-length messages — the role the cereal C++ library plays in the
// original implementation. It provides a compact, allocation-conscious
// binary encoding for the primitive types message payloads are built
// from (unsigned/signed varints, fixed-width integers, floats, byte
// strings) plus a Marshaler/Unmarshaler pair for user-defined records.
//
// The encoding is symmetric and self-delimiting per field, but carries no
// type tags: reader and writer must agree on the schema, exactly as with
// cereal archives.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrShortBuffer is returned when a Reader runs out of bytes mid-field.
var ErrShortBuffer = errors.New("codec: buffer too short")

// ErrOverflow is returned when a varint is longer than its type allows.
var ErrOverflow = errors.New("codec: varint overflows")

// Marshaler is implemented by records that can append their own encoding.
type Marshaler interface {
	MarshalYGM(w *Writer)
}

// Unmarshaler is implemented by records that can decode themselves.
type Unmarshaler interface {
	UnmarshalYGM(r *Reader) error
}

// Writer appends encoded fields to a byte buffer. The zero value is ready
// to use; Bytes returns the accumulated encoding.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer. The slice aliases the Writer's
// internal storage; it is valid until the next append.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of encoded bytes so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the writer for reuse, retaining capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Arm gives a writer that has no storage yet an initial capacity of n
// bytes. Callers that know their typical fill level (coalescing buffers
// fill to a flush threshold) use it to claim storage in one allocation
// instead of letting the first fill double its way up from empty. A
// writer that already owns storage — any capacity at all — is left
// alone, so re-armed buffers of other sizes keep circulating.
func (w *Writer) Arm(n int) {
	if cap(w.buf) == 0 && n > 0 {
		w.buf = make([]byte, 0, n)
	}
}

// Uvarint appends v in unsigned LEB128 form (1-10 bytes).
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends v in zig-zag signed varint form.
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Uint32 appends v as 4 little-endian bytes.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// Uint64 appends v as 8 little-endian bytes.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Byte appends a single byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Float64 appends v as its IEEE-754 bits, little endian.
func (w *Writer) Float64(v float64) {
	w.Uint64(math.Float64bits(v))
}

// Bytes0 appends a length-prefixed byte string.
func (w *Writer) Bytes0(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Uvarints appends a length-prefixed slice of unsigned varints.
func (w *Writer) Uvarints(vs []uint64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Uvarint(v)
	}
}

// Float64s appends a length-prefixed slice of float64s.
func (w *Writer) Float64s(vs []float64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Float64(v)
	}
}

// Marshal appends a user record's encoding.
func (w *Writer) Marshal(m Marshaler) { m.MarshalYGM(w) }

// Reader consumes encoded fields from a byte buffer.
type Reader struct {
	buf []byte
	off int
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset repoints the Reader at buf and rewinds it, so decode-heavy hot
// paths (the container engine's per-message dispatch) can reuse one
// Reader value instead of allocating a fresh one per payload.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.off = 0
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Offset returns the number of bytes consumed so far.
func (r *Reader) Offset() int { return r.off }

// Uvarint decodes an unsigned varint. Single-byte values — the bulk of
// record headers and small lengths — take the branch-free fast path.
func (r *Reader) Uvarint() (uint64, error) {
	if r.off < len(r.buf) {
		if b := r.buf[r.off]; b < 0x80 {
			r.off++
			return uint64(b), nil
		}
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n > 0 {
		r.off += n
		return v, nil
	}
	if n == 0 {
		return 0, ErrShortBuffer
	}
	return 0, ErrOverflow
}

// Varint decodes a zig-zag signed varint.
func (r *Reader) Varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n > 0 {
		r.off += n
		return v, nil
	}
	if n == 0 {
		return 0, ErrShortBuffer
	}
	return 0, ErrOverflow
}

// Uint32 decodes 4 little-endian bytes.
func (r *Reader) Uint32() (uint32, error) {
	if r.Remaining() < 4 {
		return 0, ErrShortBuffer
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

// Uint64 decodes 8 little-endian bytes.
func (r *Reader) Uint64() (uint64, error) {
	if r.Remaining() < 8 {
		return 0, ErrShortBuffer
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

// Byte decodes a single byte.
func (r *Reader) Byte() (byte, error) {
	if r.Remaining() < 1 {
		return 0, ErrShortBuffer
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

// Float64 decodes an IEEE-754 double.
func (r *Reader) Float64() (float64, error) {
	bits, err := r.Uint64()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bits), nil
}

// Bytes0 decodes a length-prefixed byte string. The returned slice
// aliases the Reader's buffer.
func (r *Reader) Bytes0() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("codec: byte string of %d exceeds %d remaining: %w", n, r.Remaining(), ErrShortBuffer)
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// String decodes a length-prefixed string, copying out of the buffer.
func (r *Reader) String() (string, error) {
	b, err := r.Bytes0()
	return string(b), err
}

// Uvarints decodes a length-prefixed slice of unsigned varints.
func (r *Reader) Uvarints() ([]uint64, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) { // each element is at least one byte
		return nil, fmt.Errorf("codec: %d varints exceed %d remaining bytes: %w", n, r.Remaining(), ErrShortBuffer)
	}
	out := make([]uint64, n)
	for i := range out {
		if out[i], err = r.Uvarint(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Float64s decodes a length-prefixed slice of float64s.
func (r *Reader) Float64s() ([]float64, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	// Divide rather than multiply: n*8 overflows uint64 for adversarial
	// counts and would slip past the bound straight into makeslice.
	if n > uint64(r.Remaining())/8 {
		return nil, fmt.Errorf("codec: %d floats exceed %d remaining bytes: %w", n, r.Remaining(), ErrShortBuffer)
	}
	out := make([]float64, n)
	for i := range out {
		if out[i], err = r.Float64(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Unmarshal decodes a user record in place.
func (r *Reader) Unmarshal(m Unmarshaler) error { return m.UnmarshalYGM(r) }

// UvarintLen returns the encoded size of v as an unsigned varint without
// encoding it — useful for pre-sizing coalescing buffers.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
