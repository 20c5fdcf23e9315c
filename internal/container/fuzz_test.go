package container

import (
	"bytes"
	"fmt"
	"testing"

	"ygm/internal/codec"
	"ygm/internal/machine"
)

// FuzzContainerCodecRoundTrip pins the engine's record layout: every
// operation encoded the way the async ops encode it must decode — with
// the exact helper sequence handle uses, frame after frame until the
// record is exhausted — back to the same fields, with nothing left over.
// The opcode selector maps the fuzzer's byte onto the six real opcodes
// (fetch replies included: they are records like any other) plus the two
// fused records Counter builds (a pending add leading a visit or a fetch
// of the same key), so every arm stays covered no matter what bytes the
// fuzzer mutates toward. A record cut short or followed by a stray byte
// must fail to decode, not decode to less.
func FuzzContainerCodecRoundTrip(f *testing.F) {
	f.Add(uint64(0), byte(0), []byte("key"), []byte("value"), uint64(1), uint64(0))
	f.Add(uint64(1), byte(1), []byte(""), []byte(""), uint64(0), uint64(0))
	f.Add(uint64(2), byte(2), []byte("k"), []byte{}, uint64(1<<40), uint64(3))
	f.Add(uint64(300), byte(3), bytes.Repeat([]byte("x"), 300), []byte{0, 1, 2}, uint64(9), uint64(12))
	f.Add(uint64(1<<50), byte(4), []byte{0xff}, bytes.Repeat([]byte{0}, 64), uint64(7), uint64(1<<33))
	f.Add(uint64(3), byte(5), []byte("w42"), []byte("arg"), uint64(2), uint64(17))
	f.Add(uint64(1), byte(6), []byte("c02"), []byte(""), uint64(0), uint64(1<<20))
	f.Add(uint64(2), byte(7), []byte(""), []byte("reply"), uint64(0), uint64(41))
	f.Fuzz(func(t *testing.T, cid uint64, opSel byte, key, val []byte, a, b uint64) {
		// The frames of the record: one opcode, or a fused pair whose
		// leading add carries b as its delta.
		var ops []byte
		switch sel := opSel % 8; sel {
		case 5:
			ops = []byte{opAdd, opVisit}
		case 6:
			ops = []byte{opAdd, opFetch}
		case 7:
			ops = []byte{opReply}
		default:
			ops = []byte{opInsert + sel}
		}
		fused := len(ops) == 2
		w := codec.NewWriter(64)
		for _, op := range ops {
			if op == opAdd {
				delta := a
				if fused {
					delta = b
				}
				putAdd(w, cid, key, delta)
				continue
			}
			w.Uvarint(cid)
			w.Byte(op)
			switch op {
			case opInsert:
				w.Bytes0(key)
				w.Bytes0(val)
			case opErase:
				w.Bytes0(key)
			case opVisit:
				w.Uvarint(a) // vid
				w.Bytes0(key)
				w.Bytes0(val) // arg
			case opFetch:
				w.Uvarint(a) // vid
				w.Uvarint(b) // fid
				w.Uvarint(uint64(machine.Rank(b % 1024)))
				w.Bytes0(key)
				w.Bytes0(val) // arg
			case opReply:
				w.Uvarint(b)  // fid
				w.Bytes0(val) // reply
			}
		}
		record := w.Bytes()

		r := codec.NewReader(record)
		mustU := func() uint64 {
			v, err := r.Uvarint()
			if err != nil {
				t.Fatalf("uvarint: %v (record %x)", err, record)
			}
			return v
		}
		mustB := func() []byte {
			v, err := r.Bytes0()
			if err != nil {
				t.Fatalf("bytes0: %v (record %x)", err, record)
			}
			return v
		}
		check := func(name string, got, want []byte) {
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %x, want %x", name, got, want)
			}
		}
		for i, op := range ops {
			if got := mustU(); got != cid {
				t.Fatalf("frame %d: cid %d, want %d", i, got, cid)
			}
			gotOp, err := r.Byte()
			if err != nil || gotOp != op {
				t.Fatalf("frame %d: op %d (err %v), want %d", i, gotOp, err, op)
			}
			switch op {
			case opInsert:
				check("key", mustB(), key)
				check("val", mustB(), val)
			case opErase:
				check("key", mustB(), key)
			case opAdd:
				want := a
				if fused {
					want = b
				}
				if got := mustU(); got != want {
					t.Fatalf("delta %d, want %d", got, want)
				}
				check("key", mustB(), key)
			case opVisit:
				if got := mustU(); got != a {
					t.Fatalf("vid %d, want %d", got, a)
				}
				check("key", mustB(), key)
				check("arg", mustB(), val)
			case opFetch:
				if got := mustU(); got != a {
					t.Fatalf("vid %d, want %d", got, a)
				}
				if got := mustU(); got != b {
					t.Fatalf("fid %d, want %d", got, b)
				}
				if got := mustU(); got != b%1024 {
					t.Fatalf("caller %d, want %d", got, b%1024)
				}
				check("key", mustB(), key)
				check("arg", mustB(), val)
			case opReply:
				if got := mustU(); got != b {
					t.Fatalf("fid %d, want %d", got, b)
				}
				check("reply", mustB(), val)
			}
			// handle's loop condition: another frame follows exactly when
			// bytes remain.
			if more := r.Remaining() != 0; more != (i+1 < len(ops)) {
				t.Fatalf("%d bytes remain after frame %d of %d", r.Remaining(), i+1, len(ops))
			}
		}

		// Malformed records: handle would keep decoding frames while bytes
		// remain, so both must hit a decode error before the end.
		for name, bad := range map[string][]byte{
			"truncated": record[:len(record)-1],
			"trailing":  append(append([]byte(nil), record...), 0),
		} {
			if n, err := walkRecord(bad); err == nil {
				t.Fatalf("%s record %x decoded as %d clean frames", name, bad, n)
			}
		}
		if n, err := walkRecord(record); err != nil || n != len(ops) {
			t.Fatalf("record %x walked as %d frames (err %v), want %d", record, n, err, len(ops))
		}
	})
}

// walkRecord decodes buf the way Engine.handle does — frame after frame
// while bytes remain — without applying anything, and returns the number
// of frames decoded before the end or the first decode error.
func walkRecord(buf []byte) (frames int, err error) {
	r := codec.NewReader(buf)
	uvarints := func(n int) {
		for ; n > 0 && err == nil; n-- {
			_, err = r.Uvarint()
		}
	}
	byteStrings := func(n int) {
		for ; n > 0 && err == nil; n-- {
			_, err = r.Bytes0()
		}
	}
	for {
		uvarints(1) // cid
		var op byte
		if err == nil {
			op, err = r.Byte()
		}
		if err != nil {
			return frames, err
		}
		switch op {
		case opInsert:
			byteStrings(2)
		case opErase:
			byteStrings(1)
		case opAdd:
			uvarints(1)
			byteStrings(1)
		case opVisit:
			uvarints(1)
			byteStrings(2)
		case opFetch:
			uvarints(3)
			byteStrings(2)
		case opReply:
			uvarints(1)
			byteStrings(1)
		default:
			err = fmt.Errorf("unknown opcode %d", op)
		}
		if err != nil {
			return frames, err
		}
		frames++
		if r.Remaining() == 0 {
			return frames, nil
		}
	}
}
