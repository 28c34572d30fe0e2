// Package wire is a minimal stub of the repository's canonical encoding
// package — just enough surface for the analyzers, which match wire.Reader
// and wire.Writer by import path, to resolve against in testdata.
package wire

// A Reader mimics the decode API of the real package.
type Reader struct {
	buf []byte
	off int
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Uint decodes an unvalidated unsigned integer.
func (r *Reader) Uint() uint64 { r.off++; return 0 }

// Int decodes an unvalidated signed integer.
func (r *Reader) Int() int64 { r.off++; return 0 }

// Count decodes an element count validated against Remaining.
func (r *Reader) Count() int { r.off++; return 0 }

// Remaining reports how many undecoded bytes remain.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// A Writer mimics the encode API of the real package.
type Writer struct {
	buf []byte
}

// Uint appends an unsigned integer.
func (w *Writer) Uint(v uint64) { w.buf = append(w.buf, byte(v)) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) { w.buf = append(w.buf, s...) }
