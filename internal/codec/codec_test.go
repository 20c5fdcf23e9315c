package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestUvarintRoundTrip(t *testing.T) {
	w := NewWriter(16)
	vals := []uint64{0, 1, 127, 128, 1 << 20, math.MaxUint64}
	for _, v := range vals {
		w.Uvarint(v)
	}
	r := NewReader(w.Bytes())
	for _, want := range vals {
		got, err := r.Uvarint()
		if err != nil || got != want {
			t.Fatalf("Uvarint = %d, %v; want %d", got, err, want)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
}

func TestFixedWidthRoundTrip(t *testing.T) {
	w := &Writer{}
	w.Byte(0x42)
	w.Float64(math.Pi)
	w.Float64(math.Inf(-1))
	if w.Len() != 17 {
		t.Fatalf("a byte and two floats encode to %d bytes, want 17", w.Len())
	}
	r := NewReader(w.Bytes())
	if v, _ := r.Byte(); v != 0x42 {
		t.Fatalf("Byte = %x", v)
	}
	if v, _ := r.Float64(); v != math.Pi {
		t.Fatalf("Float64 = %v", v)
	}
	if v, _ := r.Float64(); !math.IsInf(v, -1) {
		t.Fatalf("Float64 = %v, want -Inf", v)
	}
}

func TestStringsAndBytes(t *testing.T) {
	w := &Writer{}
	w.String("hello, mailbox")
	w.Bytes0([]byte{1, 2, 3})
	w.String("")
	w.Bytes0(nil)
	r := NewReader(w.Bytes())
	if s, err := r.String(); err != nil || s != "hello, mailbox" {
		t.Fatalf("String = %q, %v", s, err)
	}
	if b, err := r.Bytes0(); err != nil || !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("Bytes0 = %v, %v", b, err)
	}
	if s, err := r.String(); err != nil || s != "" {
		t.Fatalf("empty String = %q, %v", s, err)
	}
	if b, err := r.Bytes0(); err != nil || len(b) != 0 {
		t.Fatalf("empty Bytes0 = %v, %v", b, err)
	}
}

func TestSlices(t *testing.T) {
	w := &Writer{}
	fs := []float64{1.5, -2.25, 0}
	w.Float64s(fs)
	r := NewReader(w.Bytes())
	gotF, err := r.Float64s()
	if err != nil {
		t.Fatal(err)
	}
	for i := range fs {
		if gotF[i] != fs[i] {
			t.Fatalf("Float64s = %v", gotF)
		}
	}
}

func TestShortBufferErrors(t *testing.T) {
	r := NewReader(nil)
	if _, err := r.Uvarint(); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("Uvarint on empty = %v", err)
	}
	if _, err := r.Float64(); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("Float64 on empty = %v", err)
	}
	if _, err := r.Byte(); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("Byte on empty = %v", err)
	}
	if _, err := r.Bytes0(); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("Bytes0 on empty = %v", err)
	}
	// Length prefix claims more than available.
	w := &Writer{}
	w.Uvarint(100)
	r = NewReader(w.Bytes())
	if _, err := r.Bytes0(); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("oversized Bytes0 = %v", err)
	}
	r = NewReader(w.Bytes())
	if _, err := r.Float64s(); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("oversized Float64s = %v", err)
	}
}

func TestVarintOverflow(t *testing.T) {
	// 11 continuation bytes overflow a uint64 varint.
	buf := bytes.Repeat([]byte{0xff}, 11)
	if _, err := NewReader(buf).Uvarint(); !errors.Is(err, ErrOverflow) {
		t.Fatalf("got %v, want ErrOverflow", err)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.Uvarint(5)
	if w.Len() == 0 {
		t.Fatal("writer should hold bytes")
	}
	w.Reset()
	if w.Len() != 0 {
		t.Fatal("reset writer should be empty")
	}
	w.Uvarint(6)
	if v, _ := NewReader(w.Bytes()).Uvarint(); v != 6 {
		t.Fatal("reset writer should encode fresh values")
	}
}

func TestUvarintLenMatchesEncoding(t *testing.T) {
	f := func(v uint64) bool {
		w := &Writer{}
		w.Uvarint(v)
		return UvarintLen(v) == w.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMixedRoundTripProperty fuzzes sequences of mixed-type fields and
// checks the reader consumes exactly what the writer wrote.
func TestMixedRoundTripProperty(t *testing.T) {
	f := func(u uint64, s string, fl float64, b []byte) bool {
		w := &Writer{}
		w.Uvarint(u)
		w.String(s)
		w.Float64(fl)
		w.Bytes0(b)
		r := NewReader(w.Bytes())
		gu, err1 := r.Uvarint()
		gs, err2 := r.String()
		gf, err3 := r.Float64()
		gb, err4 := r.Bytes0()
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || r.Remaining() != 0 {
			return false
		}
		floatOK := gf == fl || (math.IsNaN(gf) && math.IsNaN(fl))
		return gu == u && gs == s && floatOK && bytes.Equal(gb, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
