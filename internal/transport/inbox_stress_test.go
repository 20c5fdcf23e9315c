package transport

import (
	"encoding/binary"
	"fmt"
	"testing"

	"ygm/internal/machine"
)

// The stress tests below hammer the inbox stack through the full
// transport runtime (real rank goroutines, real park/wake traffic) and
// assert the delivery contract end to end: every packet sent is
// received exactly once, and each src→dst channel delivers in send
// order with non-decreasing virtual arrival clocks. Fixed-size payloads
// make per-channel arrival monotonicity an exact property (equal
// transfer cost + strictly increasing send clocks), so any violation is
// a real reordering or accounting bug, not model noise. They are meant
// to run under -race, where the stack's push/swap edges and the
// park/wake CAS protocol get the most scrutiny.

// stressPayload encodes (src, idx) so the receiver can audit
// exactly-once delivery without trusting any transport metadata beyond
// the payload bytes themselves.
func stressPayload(src machine.Rank, idx int) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint32(b[0:4], uint32(src))
	binary.BigEndian.PutUint32(b[4:8], uint32(idx))
	return b
}

func decodeStressPayload(p *Packet) (src machine.Rank, idx int, err error) {
	if len(p.Payload) != 8 {
		return 0, 0, fmt.Errorf("payload size %d, want 8", len(p.Payload))
	}
	src = machine.Rank(binary.BigEndian.Uint32(p.Payload[0:4]))
	if src != p.Src {
		return 0, 0, fmt.Errorf("payload claims src %d, packet header says %d", src, p.Src)
	}
	return src, int(binary.BigEndian.Uint32(p.Payload[4:8])), nil
}

// channelAudit tracks one receiver's view of every incoming channel:
// the next expected per-channel index and the last observed arrival
// clock. Per-channel FIFO plus fixed-size payloads means indices must
// arrive in exact sequence (a skip is a lost packet, a repeat is a
// duplicate) and arrivals must never decrease.
type channelAudit struct {
	nextIdx    []int
	lastArrive []float64
}

func newChannelAudit(world int) *channelAudit {
	a := &channelAudit{
		nextIdx:    make([]int, world),
		lastArrive: make([]float64, world),
	}
	for i := range a.lastArrive {
		a.lastArrive[i] = -1
	}
	return a
}

func (a *channelAudit) observe(p *Packet) error {
	src, idx, err := decodeStressPayload(p)
	if err != nil {
		return err
	}
	if want := a.nextIdx[src]; idx != want {
		return fmt.Errorf("channel %d: got idx %d, want %d (lost or duplicated packet)", src, idx, want)
	}
	a.nextIdx[src]++
	if p.Arrive < a.lastArrive[src] {
		return fmt.Errorf("channel %d: arrival clock ran backwards (%g after %g at idx %d)",
			src, p.Arrive, a.lastArrive[src], idx)
	}
	a.lastArrive[src] = p.Arrive
	return nil
}

// TestStressManyToOneBurst: every other rank bursts a fixed-size packet
// stream at rank 0 while rank 0 blocks in Recv — the maximum-contention
// shape for the push CAS and the park/wake protocol. Rank 0 must
// observe every (src, idx) exactly once, in per-channel order, with
// monotone per-channel arrival clocks.
func TestStressManyToOneBurst(t *testing.T) {
	const (
		nodes, cores = 4, 4
		perSender    = 128
	)
	world := nodes * cores
	senders := world - 1
	var inbox0 *Inbox
	rep, err := Run(testConfig(nodes, cores), func(p *Proc) error {
		if p.Rank() != 0 {
			for i := 0; i < perSender; i++ {
				p.Send(0, TagUser, stressPayload(p.Rank(), i))
			}
			return nil
		}
		inbox0 = p.world.inboxes[0]
		audit := newChannelAudit(p.WorldSize())
		for n := 0; n < senders*perSender; n++ {
			pkt := p.Recv(TagUser)
			if pkt == nil {
				return fmt.Errorf("Recv returned nil after %d packets", n)
			}
			err := audit.observe(pkt)
			p.Recycle(pkt)
			if err != nil {
				return err
			}
		}
		for src := 1; src < p.WorldSize(); src++ {
			if audit.nextIdx[src] != perSender {
				return fmt.Errorf("channel %d delivered %d packets, want %d", src, audit.nextIdx[src], perSender)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Ranks[0].Stats.RecvMsgs; got != uint64(senders*perSender) {
		t.Fatalf("rank 0 stats count %d packets, want %d", got, senders*perSender)
	}
	// Post-run the inbox must be fully drained: everything pushed was
	// absorbed and popped.
	if n := inbox0.Len(); n != 0 {
		t.Fatalf("rank 0 inbox still holds %d packets after the run", n)
	}
	if pushes, _, _ := inbox0.WakeStats(); pushes != uint64(senders*perSender) {
		t.Fatalf("rank 0 inbox counted %d pushes, want %d", pushes, senders*perSender)
	}
}

// TestStressBroadcastStorm: every rank broadcasts a fixed-size packet
// to every other rank for several rounds before receiving anything, so
// every inbox has world-1 producers pushing concurrently while its
// owner is still producing. Each rank audits its own inbound channels
// for exactly-once, in-order, monotone-arrival delivery.
func TestStressBroadcastStorm(t *testing.T) {
	const (
		nodes, cores = 4, 2
		rounds       = 48
	)
	world := nodes * cores
	rep, err := Run(testConfig(nodes, cores), func(p *Proc) error {
		me := p.Rank()
		for round := 0; round < rounds; round++ {
			for dst := 0; dst < p.WorldSize(); dst++ {
				if machine.Rank(dst) == me {
					continue
				}
				p.Send(machine.Rank(dst), TagUser, stressPayload(me, round))
			}
		}
		audit := newChannelAudit(p.WorldSize())
		expect := (p.WorldSize() - 1) * rounds
		for n := 0; n < expect; n++ {
			pkt := p.Recv(TagUser)
			if pkt == nil {
				return fmt.Errorf("rank %d: Recv returned nil after %d packets", me, n)
			}
			err := audit.observe(pkt)
			p.Recycle(pkt)
			if err != nil {
				return fmt.Errorf("rank %d: %w", me, err)
			}
		}
		for src := 0; src < p.WorldSize(); src++ {
			if machine.Rank(src) == me {
				continue
			}
			if audit.nextIdx[src] != rounds {
				return fmt.Errorf("rank %d: channel %d delivered %d rounds, want %d", me, src, audit.nextIdx[src], rounds)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := rep.Totals()
	want := uint64(world * (world - 1) * rounds)
	if got := tot.RemoteMsgs + tot.LocalMsgs; got != want {
		t.Fatalf("storm moved %d messages, want %d", got, want)
	}
}
