// Package wire implements a canonical, deterministic binary encoding.
//
// Every byte that SNooPy hashes, signs, or sends over the network is produced
// by this package, so the encoding must be stable: the same logical value
// always encodes to the same bytes, regardless of map iteration order or
// platform. The format is a simple length-prefixed scheme:
//
//   - unsigned integers: LEB128 varint
//   - signed integers: zig-zag varint
//   - byte strings: varint length followed by the raw bytes
//   - composites: fields concatenated in a fixed, documented order
//
// The package is also the source of truth for message sizes in the
// evaluation harness: len(Writer.Bytes()) is the wire size of a value.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Marshaler is implemented by types that can append their canonical
// encoding to a Writer.
type Marshaler interface {
	MarshalWire(w *Writer)
}

// Unmarshaler is implemented by types that can decode themselves from a
// Reader.
type Unmarshaler interface {
	UnmarshalWire(r *Reader) error
}

// A Writer accumulates a canonical encoding. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// writerPool recycles Writers for transient encodings (sizing, hashing,
// signing material). Entries whose buffers grew past maxPooledCap are
// dropped rather than pinned in the pool.
var writerPool = sync.Pool{
	New: func() any { return NewWriter(1024) },
}

const maxPooledCap = 1 << 16

// GetWriter returns an empty Writer from the process-wide pool. Use it for
// encodings that are consumed before the next write — hash input, signature
// material, size probes — and release it with PutWriter. Safe for
// concurrent use.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter returns w to the pool. The caller must not retain w or any
// slice returned by w.Bytes() afterwards.
func PutWriter(w *Writer) {
	if cap(w.buf) <= maxPooledCap {
		writerPool.Put(w)
	}
}

// Bytes returns the encoded bytes. The slice aliases the Writer's internal
// buffer and is invalidated by further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset discards all written data, retaining the buffer.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Uint appends an unsigned varint.
func (w *Writer) Uint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Int appends a signed (zig-zag) varint.
func (w *Writer) Int(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Bool appends a boolean as a single byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Byte appends a single raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bytes appends a length-prefixed byte string.
func (w *Writer) BytesField(b []byte) {
	w.Uint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Raw appends bytes without a length prefix. Use only for fixed-width data.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Value appends a Marshaler.
func (w *Writer) Value(m Marshaler) { m.MarshalWire(w) }

// Errors returned by Reader.
var (
	ErrTruncated = errors.New("wire: truncated input")
	ErrOverflow  = errors.New("wire: varint overflows 64 bits")
	ErrTrailing  = errors.New("wire: trailing bytes after value")
)

// A Reader decodes values produced by a Writer. Decoding methods record the
// first error encountered; subsequent calls return zero values, so a decode
// sequence can run unconditionally and check Err once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many undecoded bytes remain.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Finish returns an error if decoding failed or bytes remain.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uint decodes an unsigned varint.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n > 0:
		r.off += n
		return v
	case n == 0:
		r.fail(ErrTruncated)
	default:
		r.fail(ErrOverflow)
	}
	return 0
}

// Int decodes a signed (zig-zag) varint.
func (r *Reader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	switch {
	case n > 0:
		r.off += n
		return v
	case n == 0:
		r.fail(ErrTruncated)
	default:
		r.fail(ErrOverflow)
	}
	return 0
}

// Bool decodes a boolean.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if r.err != nil {
		return false
	}
	if b > 1 {
		r.fail(fmt.Errorf("wire: invalid bool byte %#x", b))
		return false
	}
	return b == 1
}

// Byte decodes a single raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Count decodes an element count and validates it against the undecoded
// bytes that remain. Every encoded element occupies at least one byte, so
// a count past Remaining() can only come from corrupt or hostile input —
// rejecting it here keeps a claimed count from driving an allocation far
// larger than the input that carries it.
func (r *Reader) Count() int {
	n := r.Uint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail(fmt.Errorf("%w: count %d exceeds %d remaining bytes", ErrTruncated, n, len(r.buf)-r.off))
		return 0
	}
	return int(n)
}

// BytesField decodes a length-prefixed byte string. The result is a copy.
func (r *Reader) BytesField() []byte {
	n := r.Uint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail(ErrTruncated)
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += int(n)
	return out
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail(ErrTruncated)
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Raw returns the next n bytes without a length prefix. The returned slice
// aliases the Reader's buffer.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.buf)-r.off {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Value decodes into an Unmarshaler.
func (r *Reader) Value(m Unmarshaler) {
	if r.err != nil {
		return
	}
	if err := m.UnmarshalWire(r); err != nil {
		r.fail(err)
	}
}

// WriteSlice appends a count and then each element of s through enc (a
// MarshalWire method expression fits).
func WriteSlice[T any](w *Writer, s []T, enc func(T, *Writer)) {
	w.Uint(uint64(len(s)))
	for _, v := range s {
		enc(v, w)
	}
}

// ReadSlice decodes what WriteSlice wrote: a count, validated by Count
// against the bytes that remain before anything is allocated for it, then
// that many elements through dec (an UnmarshalWire method expression fits).
// A failed read leaves the error in r and returns nil.
func ReadSlice[T any](r *Reader, dec func(*T, *Reader) error) []T {
	n := r.Count() // adversary-controlled; bounded against input size
	if r.err != nil {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		if err := dec(&out[i], r); err != nil {
			r.fail(err)
			return nil
		}
	}
	return out
}

// Encode returns the canonical encoding of m.
func Encode(m Marshaler) []byte {
	w := NewWriter(64)
	m.MarshalWire(w)
	return w.Bytes()
}

// Decode decodes buf into m and verifies the buffer is fully consumed.
func Decode(buf []byte, m Unmarshaler) error {
	r := NewReader(buf)
	r.Value(m)
	if r.err != nil {
		return r.err
	}
	return r.Finish()
}

// Size returns the encoded size of m in bytes.
func Size(m Marshaler) int {
	w := GetWriter()
	m.MarshalWire(w)
	n := w.Len()
	PutWriter(w)
	return n
}
