package transport_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ygm/internal/machine"
	"ygm/internal/transport"
)

// leakyBody has rank 0 send three packets to rank 1, which recycles the
// first two and drops the third.
func leakyBody(p *transport.Proc) error {
	if p.Rank() == 0 {
		for i := 0; i < 3; i++ {
			p.Send(1, transport.TagUser, []byte{byte(i)})
		}
		return nil
	}
	for i := 0; i < 2; i++ {
		p.Recycle(p.Recv(transport.TagUser))
	}
	_ = p.Recv(transport.TagUser)
	return nil
}

// checkLeak asserts err is a PacketLeakError naming rank 1 with two of
// three packets recycled.
func checkLeak(t *testing.T, err error) {
	t.Helper()
	var leak *transport.PacketLeakError
	if !errors.As(err, &leak) {
		t.Fatalf("Run returned %v, want a *PacketLeakError", err)
	}
	if leak.Rank != 1 || leak.Recycled != 2 || leak.Received != 3 {
		t.Fatalf("leak = %+v, want rank 1 recycling 2 of 3", *leak)
	}
}

// TestRunReportsPacketLeak: a body that returns cleanly while one rank
// still holds a received packet fails the run with a PacketLeakError
// naming that rank, on every wire.
func TestRunReportsPacketLeak(t *testing.T) {
	for _, wire := range []transport.Wire{transport.SimWire{}, transport.LocalWire{}} {
		t.Run(wire.Name(), func(t *testing.T) {
			_, err := transport.Run(transport.Config{Topo: machine.New(2, 1), Wire: wire}, leakyBody)
			checkLeak(t, err)
		})
	}
	t.Run("tcp", func(t *testing.T) {
		_, errs := runTCPWorld(t, 2, leakyBody)
		if errs[0] != nil {
			t.Fatalf("rank 0 kept no packet, yet its process failed: %v", errs[0])
		}
		checkLeak(t, errs[1])
	})
}

// unreceivedBody has rank 0 send one packet that rank 1 never receives;
// no rank holds a received packet, so only conservation can see it.
func unreceivedBody(p *transport.Proc) error {
	if p.Rank() == 0 {
		p.Send(1, transport.TagUser, []byte{1})
	}
	return nil
}

// TestRunReportsPacketLoss: a whole-world body that returns cleanly
// while a sent packet was never received fails the run with a
// PacketLossError counting one packet sent and none received.
func TestRunReportsPacketLoss(t *testing.T) {
	for _, wire := range []transport.Wire{transport.SimWire{}, transport.LocalWire{}} {
		t.Run(wire.Name(), func(t *testing.T) {
			_, err := transport.Run(transport.Config{Topo: machine.New(2, 1), Wire: wire}, unreceivedBody)
			var loss *transport.PacketLossError
			if !errors.As(err, &loss) {
				t.Fatalf("Run returned %v, want a *PacketLossError", err)
			}
			if loss.Sent != 1 || loss.Received != 0 {
				t.Fatalf("loss = %+v, want 1 sent and 0 received", *loss)
			}
		})
	}
}

// TestTCPPlainPayloadSurvivesRecycle: a plain Send payload belongs to
// the receiver, which may keep it after recycling the packet (the
// collectives do). Over TCP the reader builds every packet from pooled
// buffers, so the frame must say which payloads go back to the pool:
// here rank 1 keeps 64 plain payloads in lockstep with rank 0, long
// enough for recycled buffers to reach the reader again.
func TestTCPPlainPayloadSurvivesRecycle(t *testing.T) {
	const rounds = 64
	_, errs := runTCPWorld(t, 2, func(p *transport.Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < rounds; i++ {
				p.Send(1, transport.TagUser, bytes.Repeat([]byte{byte(i)}, 32))
				p.Recycle(p.Recv(transport.TagUser))
			}
			return nil
		}
		kept := make([][]byte, rounds)
		for i := range kept {
			pkt := p.Recv(transport.TagUser)
			kept[i] = pkt.Payload
			p.Recycle(pkt)
			p.Send(0, transport.TagUser, nil)
		}
		for i, b := range kept {
			if !bytes.Equal(b, bytes.Repeat([]byte{byte(i)}, 32)) {
				return fmt.Errorf("payload %d was overwritten after Recycle: %v", i, b)
			}
		}
		return nil
	})
	// Rank 1's error first: when it fails, rank 0 only sees its stream
	// end.
	for _, r := range []int{1, 0} {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
	}
}
