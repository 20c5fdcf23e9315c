package ygm

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// TestTermIdleIsOneGeneration pins the exact costs: every lazy WaitEmpty
// is one generation, the barrier every rank joins, which on 2 nodes of 2
// cores is one packet from each leaf (up to its leader) and two from each
// leader (the one butterfly step across nodes and the one down to its
// leaf). A WaitEmpty that follows a send from rank 0 to rank 3 costs
// the same generation plus that data packet and rank 3's one
// acknowledgement.
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
				for _, send := range []bool{false, true, false, false} {
					if send && p.Rank() == 0 {
						mb.Send(3, []byte("x"))
					}
					g0, s0 := mb.Stats().Generations, sent()
					mb.WaitEmpty()
					if g := mb.Stats().Generations - g0; g != 1 {
						return fmt.Errorf("rank %d: WaitEmpty (send=%v) took %d generations, want 1", p.Rank(), send, g)
					}
					want := 2 - uint64(p.Rank()%2)
					if send && (p.Rank() == 0 || p.Rank() == 3) {
						want++
					}
					if n := sent() - s0; n != want {
						return fmt.Errorf("rank %d: WaitEmpty (send=%v) sent %d packets, want %d", p.Rank(), send, n, want)
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

// TestTermBurstIsOneGeneration pins the lazy policy's one generation per
// WaitEmpty where Mattern's counting needed three or more: on 2 nodes of
// 2 cores under NLNR every rank sends bursts to the rank across both the
// node and the core — a 3-hop route from ranks 0 and 3, through both
// ranks of the other core, and a direct one from ranks 1 and 2 — at a
// capacity that flushes mid-burst, so forwards are in flight at
// intermediaries when ranks enter WaitEmpty.
// Every WaitEmpty must still take exactly one generation on every rank,
// with every message of the cycle delivered.
func TestTermBurstIsOneGeneration(t *testing.T) {
	const cycles, burst = 40, 50
	for _, tw := range termWires {
		t.Run(tw.name, func(t *testing.T) {
			topo := machine.New(2, 2)
			var hops, want atomic.Uint64
			_, err := transport.Run(transport.Config{
				Topo:  topo,
				Model: netsim.Quartz(),
				Seed:  11,
				Wire:  tw.wire,
			}, func(p *transport.Proc) error {
				got := 0
				mb := New(p, func(Sender, []byte) { got++ },
					WithScheme(machine.NLNR), WithExchange(LazyExchange), WithCapacity(16))
				across := 3 - p.Rank()
				want.Add(uint64(len(topo.Path(machine.NLNR, p.Rank(), across))) * cycles * burst)
				for c := 1; c <= cycles; c++ {
					for range burst {
						mb.Send(across, []byte("burst"))
					}
					g0 := mb.Stats().Generations
					mb.WaitEmpty()
					if g := mb.Stats().Generations - g0; g != 1 {
						return fmt.Errorf("rank %d: WaitEmpty %d took %d generations, want 1", p.Rank(), c, g)
					}
					if got != c*burst {
						return fmt.Errorf("rank %d left WaitEmpty %d with %d of %d messages delivered", p.Rank(), c, got, c*burst)
					}
				}
				hops.Add(mb.Stats().HopsSent)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if hops.Load() != want.Load() || want.Load() != 8*cycles*burst {
				t.Fatalf("the world sent %d record hops, want %d (routes of 3, 1, 1 and 3 hops)", hops.Load(), want.Load())
			}
		})
	}
}

// TestTestEmptyHoldsSendsAfterJoin: a poller that has joined the epoch's
// barrier and is not engaged by a message since cannot take part in the
// epoch's work any more, so what its application sends from then on — to
// a peer and to itself — belongs to the next phase. Each rank sends both
// messages at the first such point, stamped with the next phase, and
// every delivery must carry the phase it lands in; PendingSends must
// count the held records, and a final WaitEmpty delivers the last
// phase's.
func TestTestEmptyHoldsSendsAfterJoin(t *testing.T) {
	const phases = 30
	for _, tw := range termWires {
		t.Run(tw.name, func(t *testing.T) {
			_, err := transport.Run(transport.Config{
				Topo:  machine.New(2, 2),
				Model: netsim.Quartz(),
				Seed:  4,
				Wire:  tw.wire,
			}, func(p *transport.Proc) error {
				me, world := int(p.Rank()), p.WorldSize()
				phase, got, late := uint64(0), uint64(0), uint64(0)
				var bad error
				mb := New(p, func(_ Sender, payload []byte) {
					got++
					if ph := decodeU64(payload); ph != phase && bad == nil {
						bad = fmt.Errorf("rank %d: a phase-%d message delivered in phase %d", me, ph, phase)
					}
				}, WithScheme(machine.NLNR), WithExchange(LazyExchange)).(*Mailbox)
				for ; phase < phases; phase++ {
					sent := false
					for !mb.TestEmpty() {
						if !sent && mb.joined && mb.parent == nil {
							mb.Send(machine.Rank((me+1)%world), encodeU64(phase+1))
							mb.Send(p.Rank(), encodeU64(phase+1))
							sent, late = true, late+1
							if n := mb.PendingSends(); n != 2 {
								return fmt.Errorf("rank %d holds 2 sends for the next phase, PendingSends = %d", me, n)
							}
						}
						p.AbortIfPeerFailed()
						p.Yield()
					}
					if bad != nil {
						return bad
					}
				}
				mb.WaitEmpty()
				if bad != nil {
					return bad
				}
				if late == 0 {
					return fmt.Errorf("rank %d never sent after joining: nothing was held", me)
				}
				if got == 0 {
					return fmt.Errorf("rank %d received none of the held messages", me)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTestEmptyKeepsHandlerQueuedWork is the HavoqGT pattern: handlers
// send nothing, they push a visitor onto the application's own queue,
// and the poll loop sends the queue out between TestEmpty calls. A
// visitor carries its phase and a hop count; each delivery with hops
// left queues the next hop, to a peer or to the rank itself. Whatever a
// handler queues is work of its phase, so every delivery must carry the
// phase it lands in, TestEmpty must never return true while a visitor is
// queued, and the world must deliver every hop of every chain.
func TestTestEmptyKeepsHandlerQueuedWork(t *testing.T) {
	const phases, hops = 30, 6
	for _, tw := range termWires {
		t.Run(tw.name, func(t *testing.T) {
			var delivered atomic.Uint64
			_, err := transport.Run(transport.Config{
				Topo:  machine.New(2, 2),
				Model: netsim.Quartz(),
				Seed:  9,
				Wire:  tw.wire,
			}, func(p *transport.Proc) error {
				me, world := uint64(p.Rank()), uint64(p.WorldSize())
				var queue []uint64 // hops left of each queued visitor
				phase := uint64(0)
				var bad error
				mb := New(p, func(_ Sender, payload []byte) {
					delivered.Add(1)
					r := codec.NewReader(payload)
					ph, _ := r.Uvarint()
					left, _ := r.Uvarint()
					if ph != phase && bad == nil {
						bad = fmt.Errorf("rank %d: a phase-%d visitor delivered in phase %d", me, ph, phase)
					}
					if left > 0 {
						queue = append(queue, left-1)
					}
				}, WithScheme(machine.NLNR), WithExchange(LazyExchange)).(*Mailbox)
				w := codec.NewWriter(20)
				for ; phase < phases; phase++ {
					queue = append(queue, hops)
					for {
						for len(queue) > 0 {
							left := queue[len(queue)-1]
							queue = queue[:len(queue)-1]
							w.Reset()
							w.Uvarint(phase)
							w.Uvarint(left)
							mb.Send(machine.Rank((me+left+phase)%world), w.Bytes())
						}
						if mb.TestEmpty() {
							break
						}
						p.AbortIfPeerFailed()
						p.Yield()
					}
					if bad != nil {
						return bad
					}
					if len(queue) > 0 {
						return fmt.Errorf("rank %d: TestEmpty returned true in phase %d with %d visitors queued", me, phase, len(queue))
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := delivered.Load(), uint64(phases*4*(hops+1)); got != want {
				t.Fatalf("the world delivered %d visitors, want %d", got, want)
			}
		})
	}
}

// dropFirst is a wire that loses the run's first packet under tag and
// delivers everything else.
type dropFirst struct {
	transport.Wire
	tag     transport.Tag
	dropped atomic.Bool
}

func (w *dropFirst) Inject(p *transport.Proc, dst machine.Rank, pkt *transport.Packet) {
	if pkt.Tag == w.tag && w.dropped.CompareAndSwap(false, true) {
		return
	}
	w.Wire.Inject(p, dst, pkt)
}

// lostPacketBound is how long a run that lost a packet may take to end
// in an error: the watchdog polls every 20 ms here and fires after a few
// quiet polls, so the bound leaves a wide margin for a loaded host.
const lostPacketBound = 10 * time.Second

// TestLostPacketEndsInTypedError: a data packet the wire loses is never
// acknowledged, so its sender never joins the barrier, every rank ends
// up parked, and the deadlock watchdog turns the hang into a typed
// error within lostPacketBound, on the simulator and the local wire.
// Under a counting detector the same loss ran generations forever: the
// totals never balanced, and detector packets kept the watchdog from
// firing.
func TestLostPacketEndsInTypedError(t *testing.T) {
	testLostPacket(t, LazyExchange, transport.TagData)
}

// TestLostAckEndsInTypedError: a lost acknowledgement leaves its data
// packet unacknowledged just as a lost data packet does, and must end
// the same way.
func TestLostAckEndsInTypedError(t *testing.T) {
	testLostPacket(t, LazyExchange, TagAck)
}

// TestLostRoundPacketEndsInTypedError: a lost round message leaves its
// receiver waiting in that round forever, and its partners in the next
// one or in the detector, so under both staged policies the run must end
// the same way as a lazy one that lost a packet.
func TestLostRoundPacketEndsInTypedError(t *testing.T) {
	for _, style := range []ExchangeStyle{RoundExchange, SyncExchange} {
		t.Run(style.String(), func(t *testing.T) {
			testLostPacket(t, style, roundTag(0, 0, 0))
		})
	}
}

// testLostPacket runs an all-to-all under the exchange style on the
// simulator and the local wire, each losing its first packet under tag,
// and requires a DeadlockError or PacketLossError within
// lostPacketBound.
func testLostPacket(t *testing.T, style ExchangeStyle, tag transport.Tag) {
	for _, tw := range []struct {
		name string
		wire transport.Wire
	}{{"sim", transport.SimWire{}}, {"local", transport.LocalWire{}}} {
		t.Run(tw.name, func(t *testing.T) {
			done := make(chan error, 1)
			start := time.Now()
			wire := &dropFirst{Wire: tw.wire, tag: tag}
			go func() {
				_, err := transport.Run(transport.Config{
					Topo:             machine.New(2, 2),
					Model:            netsim.Quartz(),
					Seed:             6,
					Wire:             wire,
					WatchdogInterval: 20 * time.Millisecond,
				}, func(p *transport.Proc) error {
					mb := New(p, func(Sender, []byte) {}, WithExchange(style))
					for d := 1; d < p.WorldSize(); d++ {
						mb.Send(machine.Rank((int(p.Rank())+d)%p.WorldSize()), []byte("x"))
					}
					mb.WaitEmpty()
					return nil
				})
				done <- err
			}()
			select {
			case err := <-done:
				var dl *transport.DeadlockError
				var pl *transport.PacketLossError
				if !wire.dropped.Load() {
					t.Fatalf("the run sent no packet under tag %#x to lose", tag)
				}
				if !errors.As(err, &dl) && !errors.As(err, &pl) {
					t.Fatalf("a lost packet under tag %#x ended in %v, want a DeadlockError or a PacketLossError", tag, err)
				}
				t.Logf("%s: typed error after %v", tw.name, time.Since(start).Round(time.Millisecond))
			case <-time.After(lostPacketBound):
				t.Fatalf("a run that lost a packet under tag %#x did not end within %v", tag, lostPacketBound)
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
// The guard is the epoch's data tag. With one tag for every epoch —
// generation keeping mb.data unchanged at the verdict — this test fails
// in its first cycles ("phase 1 payload delivered to rank 0 in phase 0").
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
// After one idle WaitEmpty rank 0 has consumed generation 1 and receives
// slot 1 and no slot 2: in a 2-rank world slot 1 is its one butterfly
// step and slot 2 the hand-back to a folded rank; on 2 nodes of 2 cores
// it leads node 0, so slot 1 is the leaders' one step.
func TestTermRejectsImpossiblePackets(t *testing.T) {
	for _, cores := range []int{1, 2} {
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
			name := tc.name
			if cores > 1 {
				name = "2x2 " + name
			}
			t.Run(name, func(t *testing.T) {
				_, err := transport.Run(transport.Config{
					Topo:  machine.New(2, cores),
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
						p.SendPooled(0, TagTerm, w.Bytes())
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
}

// TestTermRoundVerdict pins the round policy's one-generation verdict on
// 4 nodes of 4 cores under NLNR. A WaitEmpty after one data round — every
// rank queued records, so every rank runs that round before its snapshot
// and none can run another — takes exactly one generation on every rank.
// In a second WaitEmpty one late rank still sends enough to open capacity
// rounds after its peers have reported: they must disagree with it, run
// its rounds, and all return in the same generation with every record
// delivered.
func TestTermRoundVerdict(t *testing.T) {
	const late, burst = 5, 200
	topo := machine.New(4, 4)
	world := topo.WorldSize()
	gens := make([][2]uint64, world)
	_, err := transport.Run(transport.Config{
		Topo:  topo,
		Model: netsim.Quartz(),
		Seed:  3,
		ComputeScale: func(r machine.Rank) float64 {
			if r == late {
				return 50
			}
			return 1
		},
	}, func(p *transport.Proc) error {
		me := int(p.Rank())
		got := 0 // this rank's deliveries
		mb := New(p, func(Sender, []byte) { got++ },
			WithScheme(machine.NLNR), WithExchange(RoundExchange), WithCapacity(16))
		for d := 1; d <= 3; d++ {
			mb.Send(machine.Rank((me+5*d)%world), []byte("x"))
		}
		g0 := mb.Stats().Generations
		mb.WaitEmpty()
		gens[me][0] = mb.Stats().Generations - g0
		if got != 3 {
			return fmt.Errorf("rank %d left the first WaitEmpty with %d of its 3 records delivered", me, got)
		}
		if me == late {
			p.Compute(1e-3)
			for i := range burst {
				mb.Send(machine.Rank(i%world), []byte("y"))
			}
		}
		g0 = mb.Stats().Generations
		mb.WaitEmpty()
		gens[me][1] = mb.Stats().Generations - g0
		if want := 3 + (burst-me+world-1)/world; got != want {
			return fmt.Errorf("rank %d left the late WaitEmpty with %d of its %d records delivered", me, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, g := range gens {
		if g[0] != 1 {
			t.Fatalf("rank %d took %d generations after one data round, want 1: %v", r, g[0], gens)
		}
		if g[1] != gens[0][1] {
			t.Fatalf("rank %d took %d generations in the late WaitEmpty, rank 0 took %d: %v", r, g[1], gens[0][1], gens)
		}
	}
	if gens[0][1] < 2 {
		t.Fatalf("the late WaitEmpty took %d generation: the late rank's rounds never overlapped a generation", gens[0][1])
	}
}
