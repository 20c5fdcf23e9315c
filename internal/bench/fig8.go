package bench

import (
	"fmt"

	"ygm/internal/apps"
	"ygm/internal/combblas"
	"ygm/internal/graph"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// spmvRun executes the YGM SpMV and returns its row.
func spmvRun(p Preset, nodes int, scheme machine.Scheme, params graph.RMATParams,
	scale, edgesPerRank int, delegateFrac float64, capacity int) Row {
	world := nodes * p.Cores
	cfg := apps.SpMVConfig{
		Mailbox:      ygm.Options{Scheme: scheme, Capacity: capacity},
		Scale:        scale,
		EdgesPerRank: edgesPerRank,
		Params:       params,
		DelegateFrac: delegateFrac,
		Seed:         p.Seed,
		Iterations:   p.SpMVIterations,
	}
	rep, ex := runWorld(p, nodes, nil, func(proc *transport.Proc, ex *extras) error {
		res, err := apps.SpMV(proc, cfg)
		if err != nil {
			return err
		}
		ex.setMax("delegates", float64(res.Delegates))
		ex.setMax("setup_end", res.SetupEnd)
		return nil
	})
	nnz := float64(edgesPerRank) * float64(world) * float64(p.SpMVIterations)
	row := Row{
		Labels: schemeLabel(nodes, scheme),
		Values: opPhaseValues(rep, ex.maxs["setup_end"], nnz, "nnz"),
	}
	row.Values = append(row.Values, Value{Key: "delegates", Val: ex.maxs["delegates"]})
	return row
}

// combblasRun executes the 2D synchronous baseline (world must be a
// perfect square) and returns its row labeled scheme=CombBLAS.
func combblasRun(p Preset, nodes int, params graph.RMATParams, scale, edgesPerRank int) Row {
	world := nodes * p.Cores
	cfg := combblas.Config{
		Scale:        scale,
		EdgesPerRank: edgesPerRank,
		Params:       params,
		Seed:         p.Seed,
		Iterations:   p.SpMVIterations,
		XValue:       apps.XValue,
		MatrixValue:  apps.MatrixValue,
	}
	rep, ex := runWorld(p, nodes, nil, func(proc *transport.Proc, ex *extras) error {
		res, err := combblas.SpMV(proc, cfg)
		if err != nil {
			return err
		}
		ex.setMax("setup_end", res.SetupEnd)
		return nil
	})
	nnz := float64(edgesPerRank) * float64(world) * float64(p.SpMVIterations)
	tot := rep.Totals()
	return Row{
		Labels: []Label{
			{Key: "nodes", Val: itoa(nodes)},
			{Key: "scheme", Val: "CombBLAS"},
		},
		Values: perfRow(opTime(rep.Makespan(), ex.maxs["setup_end"]), nnz, "nnz",
			tot.RemoteMsgs, tot.RemoteBytes, rep.Utilization()),
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// isGridNode reports whether nodes is in the preset's square-world list.
func isGridNode(p Preset, nodes int) bool {
	for _, n := range p.GridNodes {
		if n == nodes {
			return true
		}
	}
	return false
}

// fig8aPlan: SpMV weak scaling on Graph500 RMAT matrices with delegates,
// against the CombBLAS-style 2D baseline at square world sizes.
func fig8aPlan(p Preset) Plan {
	pl := Plan{Table: &Table{ID: "fig8a", Title: "SpMV weak scaling (RMAT 0.57/0.19/0.19/0.05, delegates) vs CombBLAS-style 2D"}}
	for _, nodes := range p.WeakNodes {
		world := nodes * p.Cores
		scale := p.SpMVVerticesPerRankLog + log2(world)
		edgesPerRank := p.SpMVEdgeFactor << uint(p.SpMVVerticesPerRankLog)
		for _, scheme := range machine.Schemes {
			pl.add(cellName("fig8a", nodes, scheme), func() Row {
				return spmvRun(p, nodes, scheme, graph.Graph500, scale, edgesPerRank, p.SpMVDelegateFrac, p.MailboxCap)
			})
		}
		if isGridNode(p, nodes) {
			pl.add(fmt.Sprintf("fig8a/nodes=%d/scheme=CombBLAS", nodes), func() Row {
				return combblasRun(p, nodes, graph.Graph500, scale, edgesPerRank)
			})
		}
	}
	return pl
}

// fig8bPlan: delegate count growth across the Fig. 8a weak-scaling sweep.
func fig8bPlan(p Preset) Plan {
	pl := Plan{Table: &Table{ID: "fig8b", Title: "delegate growth under SpMV weak scaling"}}
	for _, nodes := range p.WeakNodes {
		world := nodes * p.Cores
		scale := p.SpMVVerticesPerRankLog + log2(world)
		edgesPerRank := p.SpMVEdgeFactor << uint(p.SpMVVerticesPerRankLog)
		pl.add(cellName("fig8b", nodes, machine.NLNR), func() Row {
			row := spmvRun(p, nodes, machine.NLNR, graph.Graph500, scale, edgesPerRank, p.SpMVDelegateFrac, p.MailboxCap)
			delegates, _ := row.Get("delegates")
			return Row{
				Labels: []Label{{Key: "nodes", Val: itoa(nodes)}},
				Values: []Value{
					{Key: "delegates", Val: delegates},
					{Key: "vertices", Val: float64(uint64(1) << uint(scale))},
				},
			}
		})
	}
	return pl
}

// fig8cPlan: SpMV weak scaling on uniform matrices (RMAT 0.25 x4) without
// delegates, vs the 2D baseline — isolating the communication layer from
// the delegate mechanism, as the paper does.
func fig8cPlan(p Preset) Plan {
	pl := Plan{Table: &Table{ID: "fig8c", Title: "SpMV weak scaling (uniform, no delegates) vs CombBLAS-style 2D"}}
	for _, nodes := range p.WeakNodes {
		world := nodes * p.Cores
		scale := p.SpMVVerticesPerRankLog + log2(world)
		edgesPerRank := p.SpMVEdgeFactor << uint(p.SpMVVerticesPerRankLog)
		for _, scheme := range machine.Schemes {
			pl.add(cellName("fig8c", nodes, scheme), func() Row {
				return spmvRun(p, nodes, scheme, graph.Uniform4, scale, edgesPerRank, 0, p.MailboxCap)
			})
		}
		if isGridNode(p, nodes) {
			pl.add(fmt.Sprintf("fig8c/nodes=%d/scheme=CombBLAS", nodes), func() Row {
				return combblasRun(p, nodes, graph.Uniform4, scale, edgesPerRank)
			})
		}
	}
	return pl
}

// fig8dPlan: SpMV strong scaling on the webgraph-like matrix. As in the
// paper, the mailbox size scales with the node count (2^10 x N there);
// without that scaling, per-channel message sizes shrink until
// coalescing stops paying.
func fig8dPlan(p Preset) Plan {
	pl := Plan{Table: &Table{ID: "fig8d", Title: "SpMV strong scaling (webgraph-like matrix, mailbox scaled with N)"}}
	for _, nodes := range p.StrongNodes {
		world := nodes * p.Cores
		edgesPerRank := p.SpMVStrongEdges / world
		if edgesPerRank == 0 {
			edgesPerRank = 1
		}
		capacity := p.MailboxCap / 4 * nodes
		if capacity < 64 {
			capacity = 64
		}
		for _, scheme := range machine.Schemes {
			pl.add(cellName("fig8d", nodes, scheme), func() Row {
				return spmvRun(p, nodes, scheme, graph.Webgraph, p.SpMVStrongScale, edgesPerRank, p.SpMVDelegateFrac, capacity)
			})
		}
		if isGridNode(p, nodes) {
			pl.add(fmt.Sprintf("fig8d/nodes=%d/scheme=CombBLAS", nodes), func() Row {
				return combblasRun(p, nodes, graph.Webgraph, p.SpMVStrongScale, edgesPerRank)
			})
		}
	}
	return pl
}
