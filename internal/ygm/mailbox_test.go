package ygm

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/transport"
)

// runMailbox executes an SPMD body with a mailbox per rank.
func runMailbox(t *testing.T, nodes, cores int, opts Options, handler func(p *transport.Proc) Handler,
	body func(p *transport.Proc, mb *Mailbox) error) *transport.Report {
	t.Helper()
	rep, err := transport.Run(transport.Config{
		Topo:  machine.New(nodes, cores),
		Model: netsim.Quartz(),
		Seed:  11,
	}, func(p *transport.Proc) error {
		o := opts
		o.Exchange = LazyExchange
		mb, err := newLazy(p, handler(p), o)
		if err != nil {
			return err
		}
		return body(p, mb)
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// counterState is a shared per-rank delivery log for assertions.
type counterState struct {
	mu        sync.Mutex
	delivered map[machine.Rank][]uint64
}

func newCounterState() *counterState {
	return &counterState{delivered: make(map[machine.Rank][]uint64)}
}

func (cs *counterState) record(r machine.Rank, v uint64) {
	cs.mu.Lock()
	cs.delivered[r] = append(cs.delivered[r], v)
	cs.mu.Unlock()
}

func encodeU64(v uint64) []byte {
	w := codec.NewWriter(10)
	w.Uvarint(v)
	return w.Bytes()
}

func decodeU64(b []byte) uint64 {
	v, err := codec.NewReader(b).Uvarint()
	if err != nil {
		panic(err)
	}
	return v
}

// TestAllToAllDelivery: every rank sends one tagged message to every
// other rank under every scheme; every message must arrive exactly once
// with intact content.
func TestAllToAllDelivery(t *testing.T) {
	for _, scheme := range machine.Schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cs := newCounterState()
			runMailbox(t, 4, 3, Options{Scheme: scheme, Capacity: 8},
				func(p *transport.Proc) Handler {
					return func(s Sender, payload []byte) {
						cs.record(p.Rank(), decodeU64(payload))
					}
				},
				func(p *transport.Proc, mb *Mailbox) error {
					me := uint64(p.Rank())
					for dst := 0; dst < p.WorldSize(); dst++ {
						if dst == int(p.Rank()) {
							continue
						}
						// payload encodes src*1000 + dst
						mb.Send(machine.Rank(dst), encodeU64(me*1000+uint64(dst)))
					}
					mb.WaitEmpty()
					return nil
				})
			size := 12
			for r := 0; r < size; r++ {
				got := cs.delivered[machine.Rank(r)]
				if len(got) != size-1 {
					t.Fatalf("rank %d delivered %d messages, want %d", r, len(got), size-1)
				}
				seen := map[uint64]bool{}
				for _, v := range got {
					if int(v%1000) != r {
						t.Fatalf("rank %d got message addressed to %d", r, v%1000)
					}
					if seen[v] {
						t.Fatalf("rank %d got duplicate %d", r, v)
					}
					seen[v] = true
				}
			}
		})
	}
}

// TestSelfSendIsSynchronous: a message to oneself is delivered before
// Send returns, without touching the transport.
func TestSelfSendIsSynchronous(t *testing.T) {
	cs := newCounterState()
	rep := runMailbox(t, 1, 2, Options{Scheme: machine.NoRoute},
		func(p *transport.Proc) Handler {
			return func(s Sender, payload []byte) { cs.record(p.Rank(), decodeU64(payload)) }
		},
		func(p *transport.Proc, mb *Mailbox) error {
			mb.Send(p.Rank(), encodeU64(7))
			cs.mu.Lock()
			n := len(cs.delivered[p.Rank()])
			cs.mu.Unlock()
			if n != 1 {
				return fmt.Errorf("self-send not delivered synchronously")
			}
			mb.WaitEmpty()
			return nil
		})
	if tot := rep.Totals(); tot.DataLocalMsgs != 0 || tot.DataRemoteMsgs != 0 {
		t.Fatalf("self sends should not hit the transport: %+v", tot)
	}
}

// TestRoutingForwardingHops verifies the hop accounting for a single
// cross-node, cross-core message under each scheme: NoRoute takes 1 hop,
// NodeLocal/NodeRemote 2, NLNR 3 (with distinct cores chosen so no
// short-circuit applies).
func TestRoutingForwardingHops(t *testing.T) {
	wantHops := map[machine.Scheme]uint64{
		machine.NoRoute:    1,
		machine.NodeLocal:  2,
		machine.NodeRemote: 2,
		machine.NLNR:       3,
	}
	for _, scheme := range machine.Schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			var mu sync.Mutex
			var totalSent, totalRecv, delivered uint64
			runMailbox(t, 8, 4, Options{Scheme: scheme},
				func(p *transport.Proc) Handler {
					return func(s Sender, payload []byte) {
						mu.Lock()
						delivered++
						mu.Unlock()
					}
				},
				func(p *transport.Proc, mb *Mailbox) error {
					// (1,0) -> (6,3): distinct node, core, and NLNR
					// intermediaries (see machine.TestNLNRHopStructure).
					if p.Rank() == p.Topo().RankOf(1, 0) {
						mb.Send(p.Topo().RankOf(6, 3), encodeU64(1))
					}
					mb.WaitEmpty()
					st := mb.Stats()
					mu.Lock()
					totalSent += st.HopsSent
					totalRecv += st.HopsRecv
					mu.Unlock()
					return nil
				})
			if delivered != 1 {
				t.Fatalf("delivered = %d", delivered)
			}
			if totalSent != wantHops[scheme] || totalRecv != wantHops[scheme] {
				t.Fatalf("hops sent/recv = %d/%d, want %d", totalSent, totalRecv, wantHops[scheme])
			}
		})
	}
}

// TestChannelConstraints: every record a rank queues must be bound for a
// legitimate next hop for the scheme — an on-node rank or a member of
// its remote partner set. This is the structural guarantee that gives
// each scheme its channel count.
func TestChannelConstraints(t *testing.T) {
	for _, scheme := range machine.Schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			tap := &hopTap{hops: map[[2]machine.Rank]bool{}}
			runMailbox(t, 8, 4, Options{Scheme: scheme, Capacity: 4, Tap: tap},
				func(p *transport.Proc) Handler {
					return func(s Sender, payload []byte) {}
				},
				func(p *transport.Proc, mb *Mailbox) error {
					rng := p.Rng()
					for i := 0; i < 50; i++ {
						dst := machine.Rank(rng.Intn(p.WorldSize()))
						mb.Send(dst, encodeU64(uint64(i)))
					}
					mb.Broadcast(encodeU64(999))
					mb.WaitEmpty()
					return nil
				})
			if len(tap.hops) == 0 {
				t.Fatal("tap saw no queued records")
			}
			topo := machine.New(8, 4)
			for hop := range tap.hops {
				at, next := hop[0], hop[1]
				if !topo.SameNode(at, next) && !slices.Contains(topo.RemotePartners(scheme, at), next) {
					t.Fatalf("%v: rank %d queued a record for %d outside its channels", scheme, at, next)
				}
			}
		})
	}
}

// hopTap records every (queueing rank, next hop) edge a mailbox uses.
type hopTap struct {
	mu   sync.Mutex
	hops map[[2]machine.Rank]bool
}

func (h *hopTap) RecordQueued(at, hop, dst machine.Rank, bcast bool, payload []byte) {
	h.mu.Lock()
	h.hops[[2]machine.Rank{at, hop}] = true
	h.mu.Unlock()
}

// TestBroadcastDelivery: a broadcast reaches every rank except the
// origin exactly once, under every scheme.
func TestBroadcastDelivery(t *testing.T) {
	for _, scheme := range machine.Schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cs := newCounterState()
			runMailbox(t, 4, 4, Options{Scheme: scheme},
				func(p *transport.Proc) Handler {
					return func(s Sender, payload []byte) { cs.record(p.Rank(), decodeU64(payload)) }
				},
				func(p *transport.Proc, mb *Mailbox) error {
					if p.Rank() == 5 {
						mb.Broadcast(encodeU64(42))
					}
					mb.WaitEmpty()
					return nil
				})
			for r := 0; r < 16; r++ {
				got := cs.delivered[machine.Rank(r)]
				if r == 5 {
					if len(got) != 0 {
						t.Fatalf("origin delivered to itself: %v", got)
					}
					continue
				}
				if len(got) != 1 || got[0] != 42 {
					t.Fatalf("%v: rank %d got %v", scheme, r, got)
				}
			}
		})
	}
}

// TestBroadcastRemoteMessageCounts verifies the remote-cost analysis of
// Section III-C/D: one broadcast on an N-node, C-core cluster costs
// (N-1)*C remote data packets under NoRoute and NodeLocal, but only N-1
// under NodeRemote and NLNR.
func TestBroadcastRemoteMessageCounts(t *testing.T) {
	const nodes, cores = 4, 4
	want := map[machine.Scheme]uint64{
		machine.NoRoute:    (nodes - 1) * cores,
		machine.NodeLocal:  (nodes - 1) * cores,
		machine.NodeRemote: nodes - 1,
		machine.NLNR:       nodes - 1,
	}
	for _, scheme := range machine.Schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			rep := runMailbox(t, nodes, cores, Options{Scheme: scheme},
				func(p *transport.Proc) Handler {
					return func(s Sender, payload []byte) {}
				},
				func(p *transport.Proc, mb *Mailbox) error {
					if p.Rank() == 1 {
						mb.Broadcast(encodeU64(1))
					}
					mb.WaitEmpty()
					return nil
				})
			// One record per packet here (single broadcast, nothing to
			// coalesce with), so data packets == remote record copies.
			if got := rep.Totals().DataRemoteMsgs; got != want[scheme] {
				t.Fatalf("%v: remote data packets = %d, want %d", scheme, got, want[scheme])
			}
		})
	}
}

// TestCoalescing: many small sends to one destination must leave the
// node in few large packets when routed, versus many with NoRoute.
func TestCoalescing(t *testing.T) {
	const msgs = 256
	counts := map[machine.Scheme]uint64{}
	for _, scheme := range []machine.Scheme{machine.NoRoute, machine.NodeRemote} {
		rep := runMailbox(t, 2, 4, Options{Scheme: scheme, Capacity: 1 << 20},
			func(p *transport.Proc) Handler {
				return func(s Sender, payload []byte) {}
			},
			func(p *transport.Proc, mb *Mailbox) error {
				if p.Node() == 0 {
					// Spray the remote node's cores.
					for i := 0; i < msgs; i++ {
						dst := p.Topo().RankOf(1, i%4)
						mb.Send(dst, encodeU64(uint64(i)))
					}
				}
				mb.WaitEmpty()
				return nil
			})
		counts[scheme] = rep.Totals().DataRemoteMsgs
	}
	// NoRoute: each of the 4 source cores holds buffers to 4 remote
	// destinations -> 16 remote packets. NodeRemote: each source core has
	// a single remote channel (its core offset on node 1) -> 4 packets.
	if counts[machine.NoRoute] <= counts[machine.NodeRemote] {
		t.Fatalf("routing should reduce remote packet count: %v", counts)
	}
	if counts[machine.NodeRemote] != 4 {
		t.Fatalf("NodeRemote remote packets = %d, want 4", counts[machine.NodeRemote])
	}
}

// TestCapacityTriggersFlush: sends beyond capacity enter the
// communication context without WaitEmpty.
func TestCapacityTriggersFlush(t *testing.T) {
	cs := newCounterState()
	runMailbox(t, 2, 1, Options{Scheme: machine.NoRoute, Capacity: 4},
		func(p *transport.Proc) Handler {
			return func(s Sender, payload []byte) { cs.record(p.Rank(), decodeU64(payload)) }
		},
		func(p *transport.Proc, mb *Mailbox) error {
			if p.Rank() == 0 {
				for i := 0; i < 10; i++ {
					mb.Send(1, encodeU64(uint64(i)))
				}
				if mb.Stats().Flushes == 0 {
					return fmt.Errorf("capacity overflow did not flush")
				}
				if mb.PendingSends() >= 4 {
					return fmt.Errorf("pending sends %d not below capacity", mb.PendingSends())
				}
			}
			mb.WaitEmpty()
			return nil
		})
	if len(cs.delivered[1]) != 10 {
		t.Fatalf("delivered %d, want 10", len(cs.delivered[1]))
	}
}

// TestHandlerSpawnsSends: a message chain where each delivery forwards
// to the next rank — data-dependent messaging with termination detection
// (the pattern graph traversals rely on).
func TestHandlerSpawnsSends(t *testing.T) {
	for _, scheme := range machine.Schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cs := newCounterState()
			runMailbox(t, 3, 2, Options{Scheme: scheme},
				func(p *transport.Proc) Handler {
					return func(s Sender, payload []byte) {
						v := decodeU64(payload)
						cs.record(p.Rank(), v)
						if next := int(p.Rank()) + 1; next < p.WorldSize() {
							s.Send(machine.Rank(next), encodeU64(v+1))
						}
					}
				},
				func(p *transport.Proc, mb *Mailbox) error {
					if p.Rank() == 0 {
						mb.Send(1, encodeU64(100))
					}
					mb.WaitEmpty()
					return nil
				})
			for r := 1; r < 6; r++ {
				got := cs.delivered[machine.Rank(r)]
				if len(got) != 1 || got[0] != uint64(99+r) {
					t.Fatalf("%v: rank %d got %v", scheme, r, got)
				}
			}
		})
	}
}

// TestTestEmptyPolling: drive termination with the nonblocking API only.
func TestTestEmptyPolling(t *testing.T) {
	cs := newCounterState()
	runMailbox(t, 2, 2, Options{Scheme: machine.NLNR},
		func(p *transport.Proc) Handler {
			return func(s Sender, payload []byte) { cs.record(p.Rank(), decodeU64(payload)) }
		},
		func(p *transport.Proc, mb *Mailbox) error {
			for dst := 0; dst < p.WorldSize(); dst++ {
				if dst != int(p.Rank()) {
					mb.Send(machine.Rank(dst), encodeU64(uint64(p.Rank())))
				}
			}
			spins := 0
			for {
				if mb.TestEmpty() {
					break
				}
				spins++
				// A real poller does external work between calls; yield
				// so peer ranks can make progress on one OS thread.
				runtime.Gosched()
				if spins > 1<<20 {
					return fmt.Errorf("TestEmpty never converged")
				}
			}
			return nil
		})
	for r := 0; r < 4; r++ {
		if len(cs.delivered[machine.Rank(r)]) != 3 {
			t.Fatalf("rank %d delivered %v", r, cs.delivered[machine.Rank(r)])
		}
	}
}

// TestMailboxReuse: multiple batches with WaitEmpty between them, as the
// degree-counting experiment does.
func TestMailboxReuse(t *testing.T) {
	cs := newCounterState()
	runMailbox(t, 2, 2, Options{Scheme: machine.NodeRemote},
		func(p *transport.Proc) Handler {
			return func(s Sender, payload []byte) { cs.record(p.Rank(), decodeU64(payload)) }
		},
		func(p *transport.Proc, mb *Mailbox) error {
			for batch := 0; batch < 3; batch++ {
				dst := machine.Rank((int(p.Rank()) + 1) % p.WorldSize())
				mb.Send(dst, encodeU64(uint64(batch)))
				mb.WaitEmpty()
				// After WaitEmpty, all messages of this batch are in.
				cs.mu.Lock()
				n := len(cs.delivered[p.Rank()])
				cs.mu.Unlock()
				if n != batch+1 {
					return fmt.Errorf("rank %d after batch %d has %d deliveries", p.Rank(), batch, n)
				}
			}
			return nil
		})
}

// TestWaitEmptyNoTraffic: WaitEmpty with nothing sent returns promptly.
func TestWaitEmptyNoTraffic(t *testing.T) {
	runMailbox(t, 2, 2, Options{},
		func(p *transport.Proc) Handler {
			return func(s Sender, payload []byte) {}
		},
		func(p *transport.Proc, mb *Mailbox) error {
			mb.WaitEmpty()
			mb.WaitEmpty()
			return nil
		})
}

// TestVariableLengthMessages exercises the codec path with payloads of
// widely varying sizes, including empty.
func TestVariableLengthMessages(t *testing.T) {
	var mu sync.Mutex
	got := map[int]int{} // length -> count
	runMailbox(t, 2, 2, Options{Scheme: machine.NLNR, Capacity: 3},
		func(p *transport.Proc) Handler {
			return func(s Sender, payload []byte) {
				for i, b := range payload {
					if b != byte(i) {
						panic("payload corrupted")
					}
				}
				mu.Lock()
				got[len(payload)]++
				mu.Unlock()
			}
		},
		func(p *transport.Proc, mb *Mailbox) error {
			if p.Rank() == 0 {
				for _, n := range []int{0, 1, 13, 300, 70000} {
					b := make([]byte, n)
					for i := range b {
						b[i] = byte(i)
					}
					mb.Send(3, b)
				}
			}
			mb.WaitEmpty()
			return nil
		})
	for _, n := range []int{0, 1, 13, 300, 70000} {
		if got[n] != 1 {
			t.Fatalf("payload of %d bytes delivered %d times", n, got[n])
		}
	}
}

// TestRandomTrafficProperty: random sends and broadcasts across random
// schemes conserve messages: delivered == unicasts + bcasts*(P-1).
func TestRandomTrafficProperty(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		scheme := machine.Schemes[trial%len(machine.Schemes)]
		var mu sync.Mutex
		var delivered, unicasts, bcasts uint64
		runMailbox(t, 3, 3, Options{Scheme: scheme, Capacity: 16},
			func(p *transport.Proc) Handler {
				return func(s Sender, payload []byte) {
					mu.Lock()
					delivered++
					mu.Unlock()
				}
			},
			func(p *transport.Proc, mb *Mailbox) error {
				rng := p.Rng()
				myU, myB := uint64(0), uint64(0)
				for i := 0; i < 100; i++ {
					if rng.Intn(10) == 0 {
						mb.Broadcast(encodeU64(uint64(i)))
						myB++
					} else {
						dst := machine.Rank(rng.Intn(p.WorldSize()))
						mb.Send(dst, encodeU64(uint64(i)))
						if dst != p.Rank() {
							myU++
						} else {
							myU++ // self-sends also deliver
						}
					}
				}
				mb.WaitEmpty()
				mu.Lock()
				unicasts += myU
				bcasts += myB
				mu.Unlock()
				return nil
			})
		want := unicasts + bcasts*8
		if delivered != want {
			t.Fatalf("%v: delivered %d, want %d (u=%d b=%d)", scheme, delivered, want, unicasts, bcasts)
		}
	}
}

// TestStragglerAsyncAdvantage is the paper's headline scenario: one slow
// rank, everyone else exchanging messages that do not involve it. Ranks
// that don't route through the straggler must finish long before it.
func TestStragglerAsyncAdvantage(t *testing.T) {
	topo := machine.New(4, 2)
	cfg := transport.Config{
		Topo:  topo,
		Model: netsim.Quartz(),
		Seed:  3,
		ComputeScale: func(r machine.Rank) float64 {
			if r == 7 {
				return 1000
			}
			return 1
		},
	}
	finish := make([]float64, topo.WorldSize())
	_, err := transport.Run(cfg, func(p *transport.Proc) error {
		mb := New(p, func(s Sender, payload []byte) {},
			WithScheme(machine.NodeRemote), WithCapacity(8), WithExchange(LazyExchange)).(*Mailbox)
		p.Compute(100e-6)
		// Ranks 0..3 (nodes 0-1) exchange among themselves only.
		if p.Rank() < 4 {
			for i := 0; i < 50; i++ {
				mb.Send(machine.Rank((int(p.Rank())+1)%4), encodeU64(uint64(i)))
			}
		}
		// Flush and record when this rank's own data work is done —
		// before the collective wait.
		mb.Flush()
		finish[p.Rank()] = p.Now()
		mb.WaitEmpty()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slowest := finish[7]
	for r := 0; r < 4; r++ {
		if finish[r] >= slowest {
			t.Fatalf("rank %d data phase (%g) should finish before straggler compute (%g)", r, finish[r], slowest)
		}
	}
}

// TestNoVirtualTimeRatchet is the regression test for the tail-flush
// ordering in termination detection: pending buffers must be flushed
// BEFORE draining arrivals (Section IV-B's "flushes its pending send
// buffers"). With the order reversed, each rank's sub-capacity tail is
// sent at a clock ratcheted up by whatever arrivals the rank absorbed
// first, serializing the world in virtual time: the makespan approaches
// the SUM of per-rank busy times instead of their maximum. The assertion
// bounds makespan by a small multiple of the busiest rank.
func TestNoVirtualTimeRatchet(t *testing.T) {
	rep := runMailbox(t, 16, 4, Options{Scheme: machine.NoRoute, Capacity: 1 << 14},
		func(p *transport.Proc) Handler {
			return func(s Sender, payload []byte) {}
		},
		func(p *transport.Proc, mb *Mailbox) error {
			rng := p.Rng()
			// All records stay buffered until WaitEmpty (capacity is
			// larger than the send count), maximizing the tail.
			for i := 0; i < 512; i++ {
				mb.Send(machine.Rank(rng.Intn(p.WorldSize())), encodeU64(uint64(i)))
			}
			mb.WaitEmpty()
			return nil
		})
	maxBusy := 0.0
	for _, rr := range rep.Ranks {
		if rr.Busy > maxBusy {
			maxBusy = rr.Busy
		}
	}
	if ms := rep.Makespan(); ms > 6*maxBusy+1e-3 {
		t.Fatalf("makespan %.3fms vs busiest rank %.3fms: virtual-time ratchet is back",
			ms*1e3, maxBusy*1e3)
	}
}
