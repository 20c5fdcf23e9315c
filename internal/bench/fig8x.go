package bench

import (
	"fmt"

	"ygm/internal/graph"
	"ygm/internal/machine"
)

// fig8xPlan isolates the Fig. 8a/8c crossover between YGM and the 2D
// synchronous baseline at paper-scale *per-rank volumes*. The mechanism:
// YGM's remote traffic per rank is proportional to its nonzeros per rank
// — constant under weak scaling — while the 2D SpMV moves the dense
// vector through grid columns and rows, O(n/sqrt(P)) entries per rank,
// which grows like sqrt(P) under weak scaling. Once the vector traffic
// exceeds the nonzero traffic (around sqrt(P) ~ 2x edge factor), YGM
// overtakes. The sweep uses a low edge factor and a mailbox large enough
// that YGM runs bandwidth-dominated rather than overhead-dominated,
// exactly the regime the paper's 2^18-record mailboxes produced.
func fig8xPlan(p Preset) Plan {
	pl := Plan{Table: &Table{ID: "fig8x", Title: "SpMV crossover vs CombBLAS-style 2D (paper-scale per-rank volumes)"}}
	for _, nodes := range p.XoverGridNodes {
		world := nodes * p.Cores
		scale := p.XoverVerticesPerRankLog + log2(world)
		edgesPerRank := p.XoverEdgeFactor << uint(p.XoverVerticesPerRankLog)
		pl.add(cellName("fig8x", nodes, machine.NLNR), func() Row {
			return spmvRun(p, nodes, machine.NLNR, graph.Uniform4, scale, edgesPerRank, 0, p.XoverMailboxCap)
		})
		pl.add(fmt.Sprintf("fig8x/nodes=%d/scheme=CombBLAS", nodes), func() Row {
			return combblasRun(p, nodes, graph.Uniform4, scale, edgesPerRank)
		})
	}
	return pl
}
