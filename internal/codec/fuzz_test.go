package codec

import (
	"bytes"
	"math"
	"testing"
)

// FuzzCodecRoundTrip checks the two codec contracts the mailbox stack
// depends on: every value written by a Writer reads back identically in
// schema order, and a Reader over arbitrary (adversarial) bytes returns
// errors rather than panicking or over-reading.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint64(0), byte(0), float64(0), []byte(nil), "")
	f.Add(uint64(1), byte(0xff), 3.14, []byte{1, 2, 3}, "ygm")
	f.Add(uint64(math.MaxUint64), byte(0x80), math.Inf(-1), bytes.Repeat([]byte{0xaa}, 300), "payload\x00with\xffbytes")
	f.Add(uint64(1<<63), byte(1), math.SmallestNonzeroFloat64,
		[]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 1}, "")
	f.Fuzz(func(t *testing.T, u uint64, b byte, fl float64, bs []byte, s string) {
		w := NewWriter(0)
		w.Uvarint(u)
		w.Byte(b)
		w.Float64(fl)
		w.Bytes0(bs)
		w.String(s)
		w.Float64s([]float64{fl, float64(u)})

		r := NewReader(w.Bytes())
		gotU, err := r.Uvarint()
		if err != nil || gotU != u {
			t.Fatalf("Uvarint: %d, %v (want %d)", gotU, err, u)
		}
		gotB, err := r.Byte()
		if err != nil || gotB != b {
			t.Fatalf("Byte: %d, %v (want %d)", gotB, err, b)
		}
		gotF, err := r.Float64()
		if err != nil {
			t.Fatalf("Float64: %v", err)
		}
		if gotF != fl && !(math.IsNaN(gotF) && math.IsNaN(fl)) {
			t.Fatalf("Float64: %v (want %v)", gotF, fl)
		}
		gotBs, err := r.Bytes0()
		if err != nil || !bytes.Equal(gotBs, bs) {
			t.Fatalf("Bytes0: %q, %v (want %q)", gotBs, err, bs)
		}
		gotS, err := r.String()
		if err != nil || gotS != s {
			t.Fatalf("String: %q, %v (want %q)", gotS, err, s)
		}
		gotFs, err := r.Float64s()
		if err != nil || len(gotFs) != 2 || gotFs[1] != float64(u) || gotFs[0] != fl && !(math.IsNaN(gotFs[0]) && math.IsNaN(fl)) {
			t.Fatalf("Float64s: %v, %v", gotFs, err)
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bytes left after full schema read", r.Remaining())
		}

		// Adversarial decode: arbitrary bytes through every decoder must
		// error cleanly, never panic, and never read past the buffer.
		ar := NewReader(bs)
		for _, step := range []func() error{
			func() error { _, err := ar.Uvarint(); return err },
			func() error { _, err := ar.Bytes0(); return err },
			func() error { _, err := ar.String(); return err },
			func() error { _, err := ar.Float64(); return err },
			func() error { _, err := ar.Float64s(); return err },
			func() error { _, err := ar.Byte(); return err },
		} {
			_ = step() // errors expected; panics are the failure mode
			if ar.Remaining() < 0 {
				t.Fatalf("reader %d bytes past buffer %d", -ar.Remaining(), len(bs))
			}
		}
	})
}
