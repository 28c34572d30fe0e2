// Package wire is a minimal stub of the repository's canonical encoding
// package — just enough surface for the analyzers, which match wire.Reader
// and wire.Writer by import path, to resolve against in testdata.
package wire

// A Writer mimics the encode API of the real package.
type Writer struct {
	buf []byte
}

// Uint appends an unsigned integer.
func (w *Writer) Uint(v uint64) { w.buf = append(w.buf, byte(v)) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) { w.buf = append(w.buf, s...) }
