package ygm

import (
	"fmt"
	"sync/atomic"
	"testing"

	"ygm/internal/machine"
	"ygm/internal/transport"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Capacity != 1024 {
		t.Fatalf("defaults = %+v", o)
	}
	o = Options{Capacity: 7}.withDefaults()
	if o.Capacity != 7 {
		t.Fatalf("explicit options clobbered: %+v", o)
	}
}

func TestNewPanicsOnNilHandler(t *testing.T) {
	_, err := transport.Run(transport.Config{Topo: machine.New(1, 1)}, func(p *transport.Proc) error {
		New(p, nil, WithExchange(LazyExchange))
		return nil
	})
	if err == nil {
		t.Fatal("nil handler should panic -> error")
	}
}

func TestMailboxAccessors(t *testing.T) {
	runMailbox(t, 1, 2, Options{Scheme: machine.NLNR},
		func(p *transport.Proc) Handler {
			return func(s Sender, payload []byte) {}
		},
		func(p *transport.Proc, mb *Mailbox) error {
			if mb.Proc() != p {
				return fmt.Errorf("Proc accessor broken")
			}
			if mb.Scheme() != machine.NLNR {
				return fmt.Errorf("Scheme accessor broken")
			}
			mb.WaitEmpty()
			return nil
		})
}

// TestBufferHopsBeforeFlush inspects the coalescing buffers directly:
// queued records must sit under the scheme's first-hop ranks.
func TestBufferHopsBeforeFlush(t *testing.T) {
	runMailbox(t, 4, 4, Options{Scheme: machine.NLNR, Capacity: 1 << 20},
		func(p *transport.Proc) Handler {
			return func(s Sender, payload []byte) {}
		},
		func(p *transport.Proc, mb *Mailbox) error {
			if p.Rank() == p.Topo().RankOf(1, 0) {
				// (1,0) -> (3,2): first NLNR hop is (1, 3 mod 4) = (1,3).
				mb.Send(p.Topo().RankOf(3, 2), encodeU64(1))
				// (1,0) -> (1,1): local direct.
				mb.Send(p.Topo().RankOf(1, 1), encodeU64(2))
				hops := mb.sortedHops()
				want := []machine.Rank{p.Topo().RankOf(1, 1), p.Topo().RankOf(1, 3)}
				if len(hops) != 2 || hops[0] != want[0] || hops[1] != want[1] {
					return fmt.Errorf("buffer hops = %v, want %v", hops, want)
				}
				if mb.PendingSends() != 2 {
					return fmt.Errorf("pending = %d", mb.PendingSends())
				}
				mb.Flush()
				if mb.PendingSends() != 0 {
					return fmt.Errorf("flush left %d records", mb.PendingSends())
				}
			}
			mb.WaitEmpty()
			return nil
		})
}

// TestManyWaitEmptyCycles stresses detector reuse across many cycles.
func TestManyWaitEmptyCycles(t *testing.T) {
	var delivered atomic.Uint64
	runMailbox(t, 2, 2, Options{Scheme: machine.NodeRemote},
		func(p *transport.Proc) Handler {
			return func(s Sender, payload []byte) { delivered.Add(1) }
		},
		func(p *transport.Proc, mb *Mailbox) error {
			for cycle := 0; cycle < 12; cycle++ {
				if cycle%3 != 2 { // some cycles send nothing at all
					mb.Send(machine.Rank((int(p.Rank())+1)%4), encodeU64(uint64(cycle)))
				}
				mb.WaitEmpty()
			}
			return nil
		})
	if delivered.Load() != 4*8 {
		t.Fatalf("delivered = %d, want 32", delivered.Load())
	}
}

// TestMixedWaitAndTestEmpty: some ranks block in WaitEmpty while others
// poll TestEmpty; both must agree on the same quiescence generation.
func TestMixedWaitAndTestEmpty(t *testing.T) {
	runMailbox(t, 2, 2, Options{Scheme: machine.NLNR},
		func(p *transport.Proc) Handler {
			return func(s Sender, payload []byte) {}
		},
		func(p *transport.Proc, mb *Mailbox) error {
			mb.Send(machine.Rank((int(p.Rank())+2)%4), encodeU64(9))
			if p.Rank()%2 == 0 {
				mb.WaitEmpty()
				return nil
			}
			for {
				if mb.TestEmpty() {
					return nil
				}
			}
		})
}

// TestBroadcastFromEveryRank: broadcasts from all origins concurrently,
// each delivered P-1 times.
func TestBroadcastFromEveryRank(t *testing.T) {
	for _, scheme := range machine.Schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cs := newCounterState()
			runMailbox(t, 3, 3, Options{Scheme: scheme, Capacity: 32},
				func(p *transport.Proc) Handler {
					return func(s Sender, payload []byte) { cs.record(p.Rank(), decodeU64(payload)) }
				},
				func(p *transport.Proc, mb *Mailbox) error {
					mb.Broadcast(encodeU64(uint64(p.Rank())))
					mb.WaitEmpty()
					return nil
				})
			for r := machine.Rank(0); r < 9; r++ {
				got := cs.delivered[r]
				if len(got) != 8 {
					t.Fatalf("%v: rank %d delivered %d, want 8", scheme, r, len(got))
				}
				seen := map[uint64]bool{}
				for _, v := range got {
					if v == uint64(r) {
						t.Fatalf("rank %d received its own broadcast", r)
					}
					if seen[v] {
						t.Fatalf("rank %d got duplicate broadcast from %d", r, v)
					}
					seen[v] = true
				}
			}
		})
	}
}

// TestSingleRankWorld: every operation degenerates gracefully at P=1.
func TestSingleRankWorld(t *testing.T) {
	var got []uint64
	runMailbox(t, 1, 1, Options{Scheme: machine.NLNR},
		func(p *transport.Proc) Handler {
			return func(s Sender, payload []byte) { got = append(got, decodeU64(payload)) }
		},
		func(p *transport.Proc, mb *Mailbox) error {
			mb.Send(0, encodeU64(1))
			mb.Broadcast(encodeU64(2)) // deprecated alias; no other ranks: no deliveries
			mb.WaitEmpty()
			// TestEmpty may need a couple of calls for a fresh cycle.
			for {
				if mb.TestEmpty() {
					return nil
				}
			}
		})
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("deliveries = %v", got)
	}
}
