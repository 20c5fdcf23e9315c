package ygm

import (
	"fmt"
	"reflect"
	"testing"

	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/transport"
)

// conformanceResult is what one run of the conformance script leaves
// behind, indexed by rank.
type conformanceResult struct {
	delivered []map[string]int // payload bytes -> count
	stats     []Stats
}

const (
	conformanceCycles = 3 // WaitEmpty reuse cycles
	conformanceTTL    = 5 // forwarding-chain length after the first hop
)

// runConformanceScript runs the one script every exchange policy must
// agree on: per WaitEmpty cycle, each rank sends a variable-length
// unicast to every rank (itself included), one zero-length message, one
// broadcast, and the head of a chain that handlers forward
// conformanceTTL more times. Everything a handler does depends on the
// delivered bytes alone, so the script is the same under any delivery
// order.
func runConformanceScript(t *testing.T, topo machine.Topology, scheme machine.Scheme, style ExchangeStyle) conformanceResult {
	t.Helper()
	world := topo.WorldSize()
	res := conformanceResult{
		delivered: make([]map[string]int, world),
		stats:     make([]Stats, world),
	}
	_, err := transport.Run(transport.Config{Topo: topo, Model: netsim.Quartz(), Seed: 7}, func(p *transport.Proc) error {
		me := int(p.Rank())
		got := map[string]int{}
		res.delivered[me] = got
		mb := New(p, func(s Sender, payload []byte) {
			got[string(payload)]++
			if len(payload) >= 4 && payload[0] == 'C' && payload[3] > 0 {
				var fwd [8]byte
				n := copy(fwd[:], payload)
				fwd[3]--
				s.Send(machine.Rank((me+3)%world), fwd[:n])
			}
		}, WithScheme(scheme), WithExchange(style), WithCapacity(8))
		for cycle := 0; cycle < conformanceCycles; cycle++ {
			for dst := 0; dst < world; dst++ {
				msg := make([]byte, 4+(me*7+dst*3+cycle)%40)
				copy(msg, []byte{'U', byte(cycle), byte(me), byte(dst)})
				mb.Send(machine.Rank(dst), msg)
			}
			mb.Send(machine.Rank((me+1)%world), nil)
			mb.Broadcast(append([]byte{'B', byte(cycle), byte(me)}, make([]byte, me%5)...))
			mb.Send(machine.Rank((me+1)%world), []byte{'C', byte(cycle), byte(me), conformanceTTL})
			mb.WaitEmpty()
			if n := mb.PendingSends(); n != 0 {
				return fmt.Errorf("rank %d: %d records pending after WaitEmpty", me, n)
			}
		}
		res.stats[me] = mb.Stats()
		return nil
	})
	if err != nil {
		t.Fatalf("%v/%v/%v: %v", topo, scheme, style, err)
	}
	return res
}

// TestVariantConformance holds the three exchange policies to one
// behaviour: the same script yields identical per-rank delivery
// multisets and identical Sends/Broadcasts/Delivered counters on lazy,
// round and sync, under every scheme, with every record hop sent also
// received — including on a one-rank world.
func TestVariantConformance(t *testing.T) {
	for _, topo := range []machine.Topology{machine.New(4, 2), machine.New(2, 3), machine.New(1, 1)} {
		for _, scheme := range machine.Schemes {
			topo, scheme := topo, scheme
			t.Run(fmt.Sprintf("%dx%d/%v", topo.Nodes(), topo.Cores(), scheme), func(t *testing.T) {
				t.Parallel()
				world := topo.WorldSize()
				var ref conformanceResult
				for _, style := range []ExchangeStyle{LazyExchange, RoundExchange, SyncExchange} {
					got := runConformanceScript(t, topo, scheme, style)
					var sent, recv, delivered uint64
					for _, st := range got.stats {
						sent += st.HopsSent
						recv += st.HopsRecv
						delivered += st.Delivered
					}
					if sent != recv {
						t.Fatalf("%v: world-wide HopsSent %d != HopsRecv %d", style, sent, recv)
					}
					// Per cycle: world² unicasts, world zero-length messages,
					// world·(world-1) broadcast copies, world chains of TTL+1.
					want := uint64(conformanceCycles * world * (world + 1 + world - 1 + conformanceTTL + 1))
					if delivered != want {
						t.Fatalf("%v: delivered %d messages, want %d", style, delivered, want)
					}
					if style == LazyExchange {
						ref = got
						continue
					}
					for r := 0; r < world; r++ {
						if !reflect.DeepEqual(got.delivered[r], ref.delivered[r]) {
							t.Fatalf("%v: rank %d delivery multiset differs from lazy's", style, r)
						}
						g, w := got.stats[r], ref.stats[r]
						if g.Sends != w.Sends || g.Broadcasts != w.Broadcasts || g.Delivered != w.Delivered {
							t.Fatalf("%v: rank %d counters sends/bcasts/delivered = %d/%d/%d, lazy has %d/%d/%d",
								style, r, g.Sends, g.Broadcasts, g.Delivered, w.Sends, w.Broadcasts, w.Delivered)
						}
					}
				}
			})
		}
	}
}
