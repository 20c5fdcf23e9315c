package ygm

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/transport"
)

// termWires are the two in-process time bases the detector runs on: the
// simulator, where arrival order is virtual, and the real-time local
// wire, where it is whatever the host scheduler produced.
var termWires = []struct {
	name string
	wire transport.Wire
}{
	{"sim", nil},
	{"local", transport.LocalWire{}},
}

// TestTermEveryWorldSize: the butterfly has three kinds of rank — inside
// the largest power of two, folded into it, and taking a fold — and
// every world size from 1 to 17 mixes them differently. On each, under
// both policies that use the detector and on both wires, every rank must
// reach the verdicts having run the same number of generations, with
// every message delivered before the first one.
func TestTermEveryWorldSize(t *testing.T) {
	for _, tw := range termWires {
		for _, style := range []ExchangeStyle{LazyExchange, RoundExchange} {
			for world := 1; world <= 17; world++ {
				t.Run(fmt.Sprintf("%s/%v/%d", tw.name, style, world), func(t *testing.T) {
					gens := make([]uint64, world)
					var delivered atomic.Int64
					_, err := transport.Run(transport.Config{
						Topo:  machine.New(world, 1),
						Model: netsim.Quartz(),
						Seed:  int64(world),
						Wire:  tw.wire,
					}, func(p *transport.Proc) error {
						mb := New(p, func(Sender, []byte) { delivered.Add(1) }, WithExchange(style))
						me := int(p.Rank())
						mb.Send(machine.Rank((me+1)%world), []byte("next"))
						mb.Send(machine.Rank((me+world/2)%world), []byte("across"))
						mb.WaitEmpty()
						if n := delivered.Load(); n != int64(2*world) {
							return fmt.Errorf("rank %d left WaitEmpty with %d of %d messages delivered", me, n, 2*world)
						}
						mb.WaitEmpty()
						gens[me] = mb.Stats().Generations
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					for r, g := range gens {
						if g != gens[0] {
							t.Fatalf("rank %d ran %d generations, rank 0 ran %d: %v", r, g, gens[0], gens)
						}
					}
				})
			}
		}
	}
}

// TestTermIdleIsOneGeneration pins the exact costs: a WaitEmpty with
// nothing sent since the last quiet instant — the start of the program
// included — is one generation, which in a 4-rank world is log2(4) = 2
// packets from each rank; one that follows a send cannot conclude before
// a second generation confirms the first.
func TestTermIdleIsOneGeneration(t *testing.T) {
	for _, tw := range termWires {
		t.Run(tw.name, func(t *testing.T) {
			_, err := transport.Run(transport.Config{
				Topo:  machine.New(2, 2),
				Model: netsim.Quartz(),
				Seed:  5,
				Wire:  tw.wire,
			}, func(p *transport.Proc) error {
				mb := New(p, func(Sender, []byte) {}, WithExchange(LazyExchange))
				sent := func() uint64 { return p.Stats().LocalMsgs + p.Stats().RemoteMsgs }
				for _, step := range []struct {
					send     bool
					min, max uint64 // generations this WaitEmpty may take
				}{
					{false, 1, 1}, // nothing ever sent
					{true, 2, 1 << 20},
					{false, 1, 1}, // nothing sent since the last verdict
					{false, 1, 1},
				} {
					if step.send && p.Rank() == 0 {
						mb.Send(3, []byte("x"))
					}
					g0, s0 := mb.Stats().Generations, sent()
					mb.WaitEmpty()
					if g := mb.Stats().Generations - g0; g < step.min || g > step.max {
						return fmt.Errorf("rank %d: WaitEmpty (send=%v) took %d generations, want %d..%d",
							p.Rank(), step.send, g, step.min, step.max)
					}
					if n := sent() - s0; !step.send && n != 2 {
						return fmt.Errorf("rank %d: idle WaitEmpty sent %d packets, want 2 (8 in the world)", p.Rank(), n)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPhaseIsolation: WaitEmpty and TestEmpty process data while a
// detection generation is in flight, and ranks leave a verdict at
// different host instants, so a rank already in phase n+1 can have its
// data sitting in the inbox of a rank still waiting for the phase-n
// verdict. Nothing may deliver it there: every handler invocation must
// see a payload of the receiver's own phase, and at the verdict a rank
// has received exactly its three messages per phase so far. The real-time
// wire is the one that produces the interleaving; NLNR's three hops put
// forwarding intermediaries in the window too, and the 6-rank world adds
// the fold ranks, the last to learn a verdict.
//
// Each scheme runs two drivers. WaitEmpty blocks in the progress loop.
// TestEmpty is the HavoqGT pattern: the rank keeps its sends in a queue
// of its own, sends one per pass, polls TestEmpty between them and
// yields when the queue is empty, so polls land with work still queued
// outside the mailbox and a rank that left the verdict can be sending
// while a peer is still polling.
//
// The guard is termDetector.hold. With it disabled —
//
//	func (td *termDetector) hold() bool { return false }
//
// — this test fails in its first cycles on every scheme and both drivers
// ("phase 1 payload delivered to rank 0 in phase 0"), as does
// TestMailboxReuse ("rank 1 after batch 0 has 2 deliveries").
func TestPhaseIsolation(t *testing.T) {
	const cycles = 300
	for _, scheme := range machine.Schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			for _, driver := range []string{"WaitEmpty", "TestEmpty"} {
				t.Run(driver, func(t *testing.T) {
					_, err := transport.Run(transport.Config{
						Topo: machine.New(3, 2),
						Seed: 9,
						Wire: transport.LocalWire{},
					}, func(p *transport.Proc) error {
						return phaseCycles(p, scheme, driver == "TestEmpty", cycles)
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// phaseCycles runs one rank of TestPhaseIsolation: each phase sends one
// message to each of three distinct peers (so each rank receives three)
// and waits for the verdict, blocking in WaitEmpty or polling TestEmpty.
func phaseCycles(p *transport.Proc, scheme machine.Scheme, poll bool, cycles uint64) error {
	world := p.WorldSize()
	me := int(p.Rank())
	// phase and received are confined to this rank: handlers run on its
	// goroutine.
	phase, received := uint64(0), uint64(0)
	var bad error
	mb := New(p, func(_ Sender, payload []byte) {
		received++
		if got := decodeU64(payload); got != phase && bad == nil {
			bad = fmt.Errorf("phase %d payload delivered to rank %d in phase %d", got, me, phase)
		}
	}, WithScheme(scheme), WithExchange(LazyExchange)).(*Mailbox)
	var queue []machine.Rank
	for ; phase < cycles; phase++ {
		for _, d := range []int{1, 3, world - 1} {
			queue = append(queue, machine.Rank((me+d)%world))
		}
		if !poll {
			for _, dst := range queue {
				mb.Send(dst, encodeU64(phase))
			}
			queue = queue[:0]
			mb.WaitEmpty()
		} else {
			for {
				if len(queue) > 0 {
					mb.Send(queue[0], encodeU64(phase))
					queue = queue[1:]
				}
				if mb.TestEmpty() {
					break
				}
				if len(queue) == 0 {
					p.AbortIfPeerFailed() // a spinning poller never parks, so no failure reaches it otherwise
					p.Yield()
				}
			}
			if len(queue) > 0 && bad == nil {
				bad = fmt.Errorf("rank %d holds %d queued sends at the phase-%d verdict", me, len(queue), phase)
			}
		}
		if want := 3 * (phase + 1); received != want && bad == nil {
			bad = fmt.Errorf("rank %d left phase %d having received %d messages, want %d", me, phase, received, want)
		}
		if bad != nil {
			return bad
		}
	}
	return nil
}

// TestTermRejectsImpossiblePackets: the detector's TagTerm stream is a
// collective.Allreduce stream, so a forged packet there meets each of the
// machine's reject rules (TestAllreduceRejectsImpossiblePackets covers
// them on sub-communicators too) instead of being filed over live state.
// In a 2-rank world after one idle WaitEmpty, rank 0 has consumed slot 1
// of generation 1 and receives only slot 1.
func TestTermRejectsImpossiblePackets(t *testing.T) {
	for _, tc := range []struct {
		name    string
		packets [][2]uint64 // (slot, generation)
		want    string
	}{
		{"stale generation", [][2]uint64{{1, 0}}, "stale"},
		{"two generations ahead", [][2]uint64{{1, 3}}, "too early"},
		{"duplicate slot", [][2]uint64{{1, 2}, {1, 2}}, "duplicate"},
		{"slot already consumed", [][2]uint64{{1, 1}}, "already consumed"},
		{"no such slot", [][2]uint64{{2, 2}}, "no such slot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := transport.Run(transport.Config{
				Topo:  machine.New(2, 1),
				Model: netsim.Quartz(),
				Seed:  1,
			}, func(p *transport.Proc) error {
				mb := New(p, func(Sender, []byte) {}, WithExchange(LazyExchange)).(*Mailbox)
				mb.WaitEmpty()
				if p.Rank() != 0 {
					return nil
				}
				for _, pk := range tc.packets {
					w := codec.NewWriter(8)
					w.Byte(byte(pk[0]))
					w.Uvarint(pk[1])
					p.Send(0, TagTerm, w.Bytes())
				}
				mb.term.Step()
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want a panic mentioning %q, got %v", tc.want, err)
			}
		})
	}
}
