package ygm

import (
	"runtime"
	"testing"

	"ygm/internal/machine"
	"ygm/internal/transport"
)

// mailboxRankBudget is the most one rank may allocate to build a
// RoundMailbox on the footprint world below. A rank's mailbox state is
// O(its hop partners): two buffer generations for each of its C−1
// same-node peers and remote partners (NLNR's ~N/C channel, NodeLocal
// and NodeRemote's N−1 peers), plus fixed bookkeeping. On 128×32 that
// measures about 8 KiB for NLNR and 19 KiB for NodeLocal/NodeRemote.
// World-sized routing tables (a next-hop and a slot index per rank)
// would add 8 bytes per rank in the world, 32 KiB here, and fail the
// budget on every scheme.
const mailboxRankBudget = 24 << 10

// TestMailboxFootprint builds one RoundMailbox per rank on a 4,096-rank
// world under each routed scheme and fails when construction allocates
// more than mailboxRankBudget per rank: the mailbox layer's half of
// TestIdleWorldFootprint's promise that creating a huge world stays
// O(P), not O(P²). The cost of construction is the difference between
// a run that builds the mailboxes and one that does not.
func TestMailboxFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("4,096-rank footprint skipped in -short mode")
	}
	topo := machine.New(128, 32)
	world := topo.WorldSize()
	allocated := func(build func(p *transport.Proc) Box) int64 {
		boxes := make([]Box, world)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := transport.Run(transport.NewConfig(topo, transport.WithSeed(1)), func(p *transport.Proc) error {
			if build != nil {
				boxes[p.Rank()] = build(p)
			}
			return nil
		})
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(boxes)
		if err != nil {
			t.Fatal(err)
		}
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	bare := allocated(nil)
	for _, s := range []machine.Scheme{machine.NLNR, machine.NodeLocal, machine.NodeRemote} {
		perRank := (allocated(func(p *transport.Proc) Box {
			return New(p, func(Sender, []byte) {}, WithScheme(s), WithExchange(RoundExchange))
		}) - bare) / int64(world)
		t.Logf("%v on %v: %.1f KiB per rank to build a RoundMailbox", s, topo, float64(perRank)/1024)
		if perRank > mailboxRankBudget {
			t.Errorf("%v: a RoundMailbox allocated %d bytes per rank on %d ranks, budget %d",
				s, perRank, world, mailboxRankBudget)
		}
	}
}
