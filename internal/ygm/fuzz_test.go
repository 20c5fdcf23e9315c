package ygm

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/transport"
)

// FuzzRecordStream: a record written by appendRecord parses back as
// sent; every strict prefix fails; a unicast destination parses exactly
// when it is inside the world; and arbitrary bytes never panic.
func FuzzRecordStream(f *testing.F) {
	f.Add(byte(kindUnicast), uint32(3), uint64(1000), []byte("payload"), []byte{0, 0xe8, 0x07, 1, 'x'})
	f.Add(byte(kindBcastNLNRFanout), uint32(0), uint64(1<<40), []byte{}, []byte{6, 0x80})
	f.Fuzz(func(t *testing.T, kind byte, dst uint32, far uint64, payload, raw []byte) {
		const world = 1 << 10
		k := recordKind(kind % byte(kindBcastNLNRDistribute+1))
		d := machine.Rank(dst % world)
		var w codec.Writer
		appendRecord(&w, k, d, payload)
		enc := w.Bytes()
		rec, err := parseRecord(codec.NewReader(enc), world)
		if err != nil || rec.kind != k || rec.dst != d && k == kindUnicast || !bytes.Equal(rec.payload, payload) {
			t.Fatalf("record % x parsed to %+v, %v; want kind %d, dst %d, payload % x", enc, rec, err, k, d, payload)
		}
		for i := range enc {
			if rec, err := parseRecord(codec.NewReader(enc[:i]), world); err == nil {
				t.Fatalf("record % x cut to %d bytes parsed to %+v", enc, i, rec)
			}
		}
		w.Reset()
		w.Byte(byte(kindUnicast))
		w.Uvarint(far)
		w.Bytes0(payload)
		if _, err := parseRecord(codec.NewReader(w.Bytes()), world); (err == nil) != (far < world) {
			t.Fatalf("unicast record to rank %d of %d: %v", far, world, err)
		}
		for r := codec.NewReader(raw); r.Remaining() > 0; {
			if _, err := parseRecord(r, world); err != nil {
				break
			}
		}
	})
}

// FuzzAckCount: a TagAck payload, encoded as sendAcks does, decodes to
// its count exactly when the count is within the deficit; every strict
// prefix fails; and arbitrary bytes decode only as 4 within the deficit.
func FuzzAckCount(f *testing.F) {
	f.Add(uint32(1), uint64(1), []byte{5})
	f.Add(uint32(5), uint64(0), []byte{5, 0, 0, 0})
	f.Fuzz(func(t *testing.T, n uint32, deficit uint64, raw []byte) {
		enc := binary.LittleEndian.AppendUint32(nil, n)
		if got, err := ackCount(enc, deficit); (err == nil) != (uint64(n) <= deficit) || err == nil && got != uint64(n) {
			t.Fatalf("acknowledgement of %d with a deficit of %d decoded to %d, %v", n, deficit, got, err)
		}
		for i := range enc {
			if got, err := ackCount(enc[:i], deficit); err == nil {
				t.Fatalf("acknowledgement % x cut to %d bytes decoded to %d", enc, i, got)
			}
		}
		if got, err := ackCount(raw, deficit); err == nil && (len(raw) != 4 || got > deficit) {
			t.Fatalf("acknowledgement % x with a deficit of %d decoded to %d", raw, deficit, got)
		}
	})
}

// forgeFirst is a wire that rewrites the payload of the first packet
// under tag sent to rank 1 and delivers everything else as sent.
type forgeFirst struct {
	transport.Wire
	tag    transport.Tag
	forged []byte
	done   atomic.Bool
}

func (w *forgeFirst) Inject(p *transport.Proc, dst machine.Rank, pkt *transport.Packet) {
	if dst == 1 && pkt.Tag == w.tag && w.done.CompareAndSwap(false, true) {
		pkt.Payload = append(pkt.Payload[:0], w.forged...)
	}
	w.Wire.Inject(p, dst, pkt)
}

// TestForgedPacketsPanic: a record for a rank outside the world, and an
// acknowledgement that is short or exceeds what was sent, end the run in
// rank 1's named corrupt-packet panic on the simulator and the local
// wire, not in an index panic or a wrapped deficit that Run ignores.
func TestForgedPacketsPanic(t *testing.T) {
	for _, forgery := range []struct {
		name, want string
		tag        transport.Tag
		forged     []byte
	}{
		{"record for rank 1000", "rank 1 corrupt packet from", transport.TagData, []byte{byte(kindUnicast), 0xe8, 0x07, 1, 'x'}},
		{"1-byte acknowledgement", "rank 1 corrupt acknowledgement from", TagAck, []byte{1}},
		{"acknowledgement past the deficit", "rank 1 corrupt acknowledgement from", TagAck, []byte{5, 0, 0, 0}},
	} {
		for _, wire := range []transport.Wire{transport.SimWire{}, transport.LocalWire{}} {
			t.Run(forgery.name+"/"+wire.Name(), func(t *testing.T) {
				_, err := transport.Run(transport.Config{
					Topo:             machine.New(2, 2),
					Wire:             &forgeFirst{Wire: wire, tag: forgery.tag, forged: forgery.forged},
					WatchdogInterval: 20 * time.Millisecond,
				}, func(p *transport.Proc) error {
					mb := New(p, func(Sender, []byte) {}, WithExchange(LazyExchange), WithScheme(machine.NoRoute))
					for d := 1; d < p.WorldSize(); d++ {
						mb.Send(machine.Rank((int(p.Rank())+d)%p.WorldSize()), []byte("xy"))
					}
					mb.WaitEmpty()
					return nil
				})
				if err == nil || !strings.Contains(err.Error(), forgery.want) {
					t.Fatalf("run ended in %v, want %q", err, forgery.want)
				}
			})
		}
	}
}
