package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestUintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1 << 20, math.MaxUint64}
	for _, v := range cases {
		w := NewWriter(0)
		w.Uint(v)
		r := NewReader(w.Bytes())
		if got := r.Uint(); got != v {
			t.Errorf("Uint(%d) round-tripped to %d", v, got)
		}
		if err := r.Finish(); err != nil {
			t.Errorf("Uint(%d): %v", v, err)
		}
	}
}

func TestIntRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 63, -64, 1 << 40, math.MinInt64, math.MaxInt64}
	for _, v := range cases {
		w := NewWriter(0)
		w.Int(v)
		r := NewReader(w.Bytes())
		if got := r.Int(); got != v {
			t.Errorf("Int(%d) round-tripped to %d", v, got)
		}
	}
}

func TestMixedRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.Uint(42)
	w.String("hello")
	w.Bool(true)
	w.Bool(false)
	w.BytesField([]byte{1, 2, 3})
	w.Int(-7)
	w.Byte(0xAB)

	r := NewReader(w.Bytes())
	if got := r.Uint(); got != 42 {
		t.Errorf("Uint = %d", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.Bool(); !got {
		t.Errorf("Bool#1 = %v", got)
	}
	if got := r.Bool(); got {
		t.Errorf("Bool#2 = %v", got)
	}
	if got := r.BytesField(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("BytesField = %v", got)
	}
	if got := r.Int(); got != -7 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Byte(); got != 0xAB {
		t.Errorf("Byte = %#x", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestTruncated(t *testing.T) {
	w := NewWriter(0)
	w.String("hello world")
	full := w.Bytes()
	for i := 0; i < len(full); i++ {
		r := NewReader(full[:i])
		_ = r.String()
		if r.Err() == nil {
			t.Errorf("prefix of length %d: expected error", i)
		}
	}
}

func TestTrailing(t *testing.T) {
	w := NewWriter(0)
	w.Uint(1)
	w.Uint(2)
	r := NewReader(w.Bytes())
	_ = r.Uint()
	if err := r.Finish(); err == nil {
		t.Fatal("Finish with trailing bytes: expected error")
	}
}

func TestErrorSticky(t *testing.T) {
	r := NewReader(nil)
	_ = r.Uint() // fails
	if r.Err() == nil {
		t.Fatal("expected error on empty input")
	}
	// Subsequent reads must return zero values and keep the first error.
	if got := r.String(); got != "" {
		t.Errorf("String after error = %q", got)
	}
	if got := r.Int(); got != 0 {
		t.Errorf("Int after error = %d", got)
	}
}

func TestInvalidBool(t *testing.T) {
	r := NewReader([]byte{7})
	_ = r.Bool()
	if r.Err() == nil {
		t.Fatal("expected error for bool byte 7")
	}
}

func TestResetReuse(t *testing.T) {
	w := NewWriter(8)
	w.String("abc")
	first := append([]byte(nil), w.Bytes()...)
	w.Reset()
	w.String("abc")
	if !bytes.Equal(first, w.Bytes()) {
		t.Fatal("Reset changed encoding")
	}
}

// TestDeterminism checks the core property this package exists for: equal
// inputs produce byte-identical encodings.
func TestDeterminism(t *testing.T) {
	f := func(a uint64, b int64, s string, raw []byte, flag bool) bool {
		enc := func() []byte {
			w := NewWriter(0)
			w.Uint(a)
			w.Int(b)
			w.String(s)
			w.BytesField(raw)
			w.Bool(flag)
			return w.Bytes()
		}
		return bytes.Equal(enc(), enc())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRoundTrip property-tests that decode(encode(x)) == x.
func TestQuickRoundTrip(t *testing.T) {
	f := func(a uint64, b int64, s string, raw []byte, flag bool) bool {
		w := NewWriter(0)
		w.Uint(a)
		w.Int(b)
		w.String(s)
		w.BytesField(raw)
		w.Bool(flag)
		r := NewReader(w.Bytes())
		ga, gb, gs, graw, gflag := r.Uint(), r.Int(), r.String(), r.BytesField(), r.Bool()
		if err := r.Finish(); err != nil {
			return false
		}
		return ga == a && gb == b && gs == s && bytes.Equal(graw, raw) && gflag == flag
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
