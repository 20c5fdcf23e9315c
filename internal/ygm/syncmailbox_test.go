package ygm

import (
	"fmt"
	"sync"
	"testing"

	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/transport"
)

// runSyncMailbox executes an SPMD body with a synchronous mailbox per rank.
func runSyncMailbox(t *testing.T, nodes, cores int, opts Options, handler func(p *transport.Proc) Handler,
	body func(p *transport.Proc, mb *SyncMailbox) error) *transport.Report {
	t.Helper()
	rep, err := transport.Run(transport.Config{
		Topo:  machine.New(nodes, cores),
		Model: netsim.Quartz(),
		Seed:  11, // same seed as runMailbox: comparison tests share workloads
	}, func(p *transport.Proc) error {
		mb, err := newSync(p, handler(p), opts)
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

func TestSyncNewValidation(t *testing.T) {
	_, err := transport.Run(transport.Config{Topo: machine.New(1, 1)}, func(p *transport.Proc) error {
		if _, err := newSync(p, nil, Options{}); err == nil {
			return fmt.Errorf("nil handler accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSyncAllToAllDelivery mirrors the asynchronous all-to-all test: one
// Exchange must deliver every pre-queued message under every scheme.
func TestSyncAllToAllDelivery(t *testing.T) {
	for _, scheme := range machine.Schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cs := newCounterState()
			runSyncMailbox(t, 4, 3, Options{Scheme: scheme},
				func(p *transport.Proc) Handler {
					return func(s Sender, payload []byte) {
						cs.record(p.Rank(), decodeU64(payload))
					}
				},
				func(p *transport.Proc, mb *SyncMailbox) error {
					me := uint64(p.Rank())
					for dst := 0; dst < p.WorldSize(); dst++ {
						if dst != int(p.Rank()) {
							mb.Send(machine.Rank(dst), encodeU64(me*1000+uint64(dst)))
						}
					}
					mb.Exchange()
					if mb.PendingSends() != 0 {
						return fmt.Errorf("%d records left after one exchange", mb.PendingSends())
					}
					return nil
				})
			size := 12
			for r := 0; r < size; r++ {
				got := cs.delivered[machine.Rank(r)]
				if len(got) != size-1 {
					t.Fatalf("rank %d delivered %d, want %d", r, len(got), size-1)
				}
				for _, v := range got {
					if int(v%1000) != r {
						t.Fatalf("rank %d got message for %d", r, v%1000)
					}
				}
			}
		})
	}
}

// TestSyncBroadcast: broadcast delivery and the remote packet counts of
// the scheme fan-outs carry over unchanged from the async mailbox.
func TestSyncBroadcast(t *testing.T) {
	const nodes, cores = 4, 4
	wantRemote := map[machine.Scheme]uint64{
		machine.NoRoute:    (nodes - 1) * cores,
		machine.NodeLocal:  (nodes - 1) * cores,
		machine.NodeRemote: nodes - 1,
		machine.NLNR:       nodes - 1,
	}
	for _, scheme := range machine.Schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cs := newCounterState()
			rep := runSyncMailbox(t, nodes, cores, Options{Scheme: scheme},
				func(p *transport.Proc) Handler {
					return func(s Sender, payload []byte) { cs.record(p.Rank(), decodeU64(payload)) }
				},
				func(p *transport.Proc, mb *SyncMailbox) error {
					if p.Rank() == 5 {
						mb.Broadcast(encodeU64(42))
					}
					mb.WaitEmpty()
					return nil
				})
			for r := 0; r < nodes*cores; r++ {
				got := cs.delivered[machine.Rank(r)]
				if r == 5 {
					if len(got) != 0 {
						t.Fatalf("origin delivered to itself")
					}
					continue
				}
				if len(got) != 1 || got[0] != 42 {
					t.Fatalf("rank %d got %v", r, got)
				}
			}
			// A single broadcast's records cannot coalesce with anything,
			// and empty round messages are not data, so remote data
			// packets equal the scheme's remote record copies.
			if got := rep.Totals().DataRemoteMsgs; got != wantRemote[scheme] {
				t.Fatalf("%v broadcast: %d remote data packets, want %d", scheme, got, wantRemote[scheme])
			}
		})
	}
}

// TestSyncHandlerSpawns: records spawned by handlers are delivered by
// WaitEmpty across rounds (the message-chain workload).
func TestSyncHandlerSpawns(t *testing.T) {
	for _, scheme := range machine.Schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cs := newCounterState()
			runSyncMailbox(t, 3, 2, Options{Scheme: scheme},
				func(p *transport.Proc) Handler {
					return func(s Sender, payload []byte) {
						v := decodeU64(payload)
						cs.record(p.Rank(), v)
						if next := int(p.Rank()) + 1; next < p.WorldSize() {
							s.Send(machine.Rank(next), encodeU64(v+1))
						}
					}
				},
				func(p *transport.Proc, mb *SyncMailbox) error {
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

// TestSyncMatchesAsyncDelivery: the same random workload produces the
// same multiset of deliveries through both exchange styles.
func TestSyncMatchesAsyncDelivery(t *testing.T) {
	workload := func(send func(dst machine.Rank, payload []byte), bcast func([]byte), p *transport.Proc) {
		rng := p.Rng()
		for i := 0; i < 60; i++ {
			if rng.Intn(12) == 0 {
				bcast(encodeU64(uint64(1000 + i)))
			} else {
				send(machine.Rank(rng.Intn(p.WorldSize())), encodeU64(uint64(i)))
			}
		}
	}
	collect := func(sync bool) map[machine.Rank][]uint64 {
		cs := newCounterState()
		handler := func(p *transport.Proc) Handler {
			return func(s Sender, payload []byte) { cs.record(p.Rank(), decodeU64(payload)) }
		}
		opts := Options{Scheme: machine.NLNR, Capacity: 16}
		if sync {
			runSyncMailbox(t, 3, 3, opts, handler, func(p *transport.Proc, mb *SyncMailbox) error {
				workload(mb.Send, mb.Broadcast, p)
				mb.WaitEmpty()
				return nil
			})
		} else {
			runMailbox(t, 3, 3, opts, handler, func(p *transport.Proc, mb *Mailbox) error {
				workload(mb.Send, mb.Broadcast, p)
				mb.WaitEmpty()
				return nil
			})
		}
		return cs.delivered
	}
	asyncGot := collect(false)
	syncGot := collect(true)
	for r := machine.Rank(0); r < 9; r++ {
		a, s := asyncGot[r], syncGot[r]
		if len(a) != len(s) {
			t.Fatalf("rank %d: async %d deliveries, sync %d", r, len(a), len(s))
		}
		counts := map[uint64]int{}
		for _, v := range a {
			counts[v]++
		}
		for _, v := range s {
			counts[v]--
		}
		for v, c := range counts {
			if c != 0 {
				t.Fatalf("rank %d: delivery multiset differs at %d (%+d)", r, v, c)
			}
		}
	}
}

// TestSyncCouplesToStraggler: the whole point of the async design —
// a synchronous Exchange waits for its slowest participant, so every
// rank's exit time is bounded below by the straggler's compute.
func TestSyncCouplesToStraggler(t *testing.T) {
	const slow = 5e-3
	exits := make([]float64, 8)
	var mu sync.Mutex
	_, err := transport.Run(transport.Config{
		Topo:  machine.New(4, 2),
		Model: netsim.Quartz(),
	}, func(p *transport.Proc) error {
		mb, err := newSync(p, func(s Sender, payload []byte) {}, Options{Scheme: machine.NodeRemote})
		if err != nil {
			return err
		}
		if p.Rank() == 7 {
			p.Compute(slow)
		}
		mb.Send(machine.Rank((int(p.Rank())+1)%8), encodeU64(1))
		mb.Exchange()
		mu.Lock()
		exits[p.Rank()] = p.Now()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, at := range exits {
		if at < slow {
			t.Fatalf("rank %d exited the exchange at %g before the straggler's %g", r, at, slow)
		}
	}
}

// TestSyncVariableLengthAndSelfSend: payload sizes and self-delivery.
func TestSyncVariableLengthAndSelfSend(t *testing.T) {
	var mu sync.Mutex
	sizes := map[int]int{}
	runSyncMailbox(t, 2, 2, Options{Scheme: machine.NodeLocal},
		func(p *transport.Proc) Handler {
			return func(s Sender, payload []byte) {
				mu.Lock()
				sizes[len(payload)]++
				mu.Unlock()
			}
		},
		func(p *transport.Proc, mb *SyncMailbox) error {
			if p.Rank() == 0 {
				mb.Send(0, make([]byte, 5)) // self: immediate
				mb.Send(3, make([]byte, 0))
				mb.Send(3, make([]byte, 40000))
			}
			mb.WaitEmpty()
			return nil
		})
	if sizes[5] != 1 || sizes[0] != 1 || sizes[40000] != 1 {
		t.Fatalf("sizes = %v", sizes)
	}
}
