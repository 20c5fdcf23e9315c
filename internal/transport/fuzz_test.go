package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"slices"
	"strings"
	"testing"

	"ygm/internal/codec"
	"ygm/internal/machine"
)

// FuzzTCPHandshake: the hello, roster and peer-hello bodies, written as
// the handshake writes them, decode as sent when valid for a 2x2 world
// and fail otherwise (the seeds break one hello field each), as does a
// roster for another world size and every strict prefix of each body;
// arbitrary bytes never panic.
func FuzzTCPHandshake(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(2), "127.0.0.1:40001", []byte{kindHello, 1, 2, 2, 0})
	f.Add(uint64(4), uint64(2), uint64(2), "", []byte{kindRoster, 0x80})
	f.Add(uint64(3), uint64(1), uint64(2), "a", []byte{kindPeerHello, 2})
	f.Add(uint64(2), uint64(2), uint64(3), "b", []byte{kindPeerHello, 0x80})
	f.Fuzz(func(t *testing.T, rank, nodes, cores uint64, addr string, raw []byte) {
		tw := &TCPWire{w: &World{topo: machine.New(2, 2)}, self: 1}
		var hello, roster, peer codec.Writer
		hello.Byte(kindHello)
		hello.Uvarint(rank)
		hello.Uvarint(nodes)
		hello.Uvarint(cores)
		hello.String(addr)
		r, a, err := tw.parseHello(hello.Bytes())
		if valid := rank >= 1 && rank < 4 && nodes == 2 && cores == 2; (err == nil) != valid || valid && (r != int(rank) || a != addr) {
			t.Fatalf("hello %d %dx%d %q decoded to %d %q, %v", rank, nodes, cores, addr, r, a, err)
		}
		want := []string{addr, "127.0.0.1:1", "", addr + addr}
		roster.Byte(kindRoster)
		roster.Uvarint(uint64(len(want)))
		for _, s := range want {
			roster.String(s)
		}
		if got, err := parseRoster(roster.Bytes(), 4); err != nil || !slices.Equal(got, want) {
			t.Fatalf("roster %q decoded to %q, %v", want, got, err)
		}
		if got, err := parseRoster(roster.Bytes(), 3); err == nil {
			t.Fatalf("roster of 4 decoded for a world of 3: %q", got)
		}
		peer.Byte(kindPeerHello)
		peer.Uvarint(rank)
		if got, err := parsePeerHello(peer.Bytes(), tw.self, 4); (err == nil) != (rank == 2 || rank == 3) || err == nil && got != rank {
			t.Fatalf("peer hello from %d to rank 1 decoded to %d, %v", rank, got, err)
		}
		for _, enc := range [][]byte{hello.Bytes(), roster.Bytes(), peer.Bytes()} {
			for i := range enc {
				_, _, err1 := tw.parseHello(enc[:i])
				_, err2 := parseRoster(enc[:i], 4)
				_, err3 := parsePeerHello(enc[:i], tw.self, 4)
				if err1 == nil || err2 == nil || err3 == nil {
					t.Fatalf("body % x cut to %d bytes decoded: %v, %v, %v", enc, i, err1, err2, err3)
				}
			}
		}
		tw.parseHello(raw)
		parseRoster(raw, 4)
		parsePeerHello(raw, tw.self, 4)
	})
}

// readStream runs a TCP reader over stream as rank 0's end of rank 1's
// connection in a 2x1 world, and returns rank 0's inbox and the fault
// the reader reported.
func readStream(stream []byte) (*Inbox, error) {
	w := &World{topo: machine.New(2, 1), inboxes: []*Inbox{NewInbox(2), NewInbox(2)}}
	tw := &TCPWire{w: w}
	local, remote := net.Pipe()
	written := make(chan struct{})
	go func() {
		remote.Write(stream) // fails once the reader stops and closes local
		remote.Close()
		close(written)
	}()
	tw.readers.Add(1)
	tw.readLoop(1, newTCPPeer(local))
	local.Close()
	<-written
	return w.inboxes[0], w.wireErr
}

// FuzzTCPStream: a data frame queued by Inject, then the goodbye, reads
// back as the packet sent with no fault; every strict prefix ends in a
// fault, delivering nothing but the whole frame; and an arbitrary stream
// ends cleanly only on a goodbye, and one whose first frame is neither
// data nor goodbye faults on its kind. Declared lengths stay under 64 KiB, so
// the 256 MiB frame cap is not exercised here.
func FuzzTCPStream(f *testing.F) {
	goodbye := []byte{1, 0, 0, 0, kindGoodbye}
	f.Add(uint64(TagUser), []byte("payload"), []byte{2, 0, 0, 0, kindGoodbye, 0})
	f.Add(uint64(1<<40), []byte{}, append(slices.Clone(goodbye), 10, 0, 0, 0, kindData, 0x10, 0, 0, 0, 0, 0, 0, 0, 0xab))
	f.Add(uint64(0), []byte{0xab}, []byte{5, 0, 0, 0, kindData, 1, 2, 3, 4})
	// Kind 8 marked a pooled payload in wire version 1; it is retired.
	f.Add(uint64(0), []byte{}, append([]byte{9, 0, 0, 0, 8, 0x10, 0, 0, 0, 0, 0, 0, 0}, goodbye...))
	f.Fuzz(func(t *testing.T, tag uint64, payload []byte, raw []byte) {
		payload = payload[:min(len(payload), 256)]
		w := &World{topo: machine.New(2, 1)}
		tw := &TCPWire{w: w, peers: []*tcpPeer{nil, newTCPPeer(nil)}}
		p := &Proc{world: w}
		p.cache.pool = &w.pool
		tw.Inject(p, 1, &Packet{Tag: Tag(tag), Payload: bytes.Clone(payload)})
		frame := len(tw.peers[1].pending)
		stream := append(tw.peers[1].pending, goodbye...)
		ib, err := readStream(stream)
		pkt := ib.TryPop(Tag(tag))
		if err != nil || pkt == nil || pkt.Src != 1 || !bytes.Equal(pkt.Payload, payload) || ib.Len() != 0 {
			t.Fatalf("stream % x read as %+v, %d more, fault %v", stream, pkt, ib.Len(), err)
		}
		for i := range stream {
			ib, err := readStream(stream[:i])
			if pkt := ib.TryPop(Tag(tag)); err == nil || ib.Len() != 0 || pkt != nil && (i < frame || !bytes.Equal(pkt.Payload, payload)) {
				t.Fatalf("stream % x cut to %d bytes: fault %v, delivered %+v and %d more", stream, i, err, pkt, ib.Len())
			}
		}
		for off := 0; off+4 <= len(raw); off += 4 + int(binary.LittleEndian.Uint32(raw[off:])) {
			if binary.LittleEndian.Uint32(raw[off:]) > 1<<16 {
				t.Skip("declared frame length over 64 KiB")
			}
		}
		_, err = readStream(raw)
		if err == nil && !bytes.HasSuffix(raw, goodbye) {
			t.Fatalf("stream % x ended cleanly without a goodbye", raw)
		}
		if len(raw) > 4 && binary.LittleEndian.Uint32(raw) > 0 && raw[4] != kindData && raw[4] != kindGoodbye &&
			(err == nil || !strings.Contains(err.Error(), "unknown frame kind")) {
			t.Fatalf("stream % x opens with frame kind %d: fault %v, want an unknown frame kind", raw, raw[4], err)
		}
	})
}
