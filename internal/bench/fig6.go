package bench

import (
	"ygm/internal/apps"
	"ygm/internal/graph"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// degreeCount runs Algorithm 1 (apps.DegreeCount) across a nodes-node
// world, each rank streaming its own uniform edges, with the preset's
// mailbox capacity and the exchange style, scheme and batching of cfg.
// straggler scales per-rank compute (nil: none). Every degree-counting
// figure and ablation row reaches Algorithm 1 through here.
func degreeCount(p Preset, nodes int, straggler func(machine.Rank) float64, cfg apps.DegreeCountConfig) *transport.Report {
	cfg.Mailbox.Capacity = p.MailboxCap
	cfg.NewGen = func(proc *transport.Proc) graph.Generator {
		return graph.NewUniform(cfg.NumVertices, p.Seed*31+int64(proc.Rank()))
	}
	rep, _ := runWorld(p, nodes, straggler, func(proc *transport.Proc, _ *extras) error {
		_, err := apps.DegreeCount(proc, cfg)
		return err
	})
	return rep
}

// degreeRun is one scaling row of degree counting on the round mailbox.
func degreeRun(p Preset, nodes int, scheme machine.Scheme, numVertices uint64, edgesPerRank int) Row {
	rep := degreeCount(p, nodes, nil, apps.DegreeCountConfig{
		Mailbox:      ygm.Options{Scheme: scheme},
		NumVertices:  numVertices,
		EdgesPerRank: edgesPerRank,
		BatchSize:    edgesPerRank / maxInt(1, p.DegreeBatches),
	})
	return Row{
		Labels: schemeLabel(nodes, scheme),
		Values: perfValues(rep, float64(edgesPerRank)*float64(nodes*p.Cores), "edges"),
	}
}

// fig6aPlan: degree counting weak scaling. The paper used 2^28 vertices and
// 2^32 edges per node with a 2^18 mailbox on 36-core nodes; the preset
// keeps edges-per-rank and mailbox size fixed across the node sweep,
// which is what produces the NoRoute collapse and the eventual
// NodeLocal/NodeRemote coalescing falloff.
func fig6aPlan(p Preset) Plan {
	pl := Plan{Table: &Table{ID: "fig6a", Title: "degree counting weak scaling (uniform edges, fixed mailbox)"}}
	for _, nodes := range p.WeakNodes {
		world := uint64(nodes * p.Cores)
		numVertices := p.DegreeVerticesPerRank * world
		for _, scheme := range machine.Schemes {
			pl.add(cellName("fig6a", nodes, scheme), func() Row {
				return degreeRun(p, nodes, scheme, numVertices, p.DegreeEdgesPerRank)
			})
		}
	}
	return pl
}

// fig6bPlan: degree counting strong scaling (fixed total problem).
func fig6bPlan(p Preset) Plan {
	pl := Plan{Table: &Table{ID: "fig6b", Title: "degree counting strong scaling (fixed total edges)"}}
	for _, nodes := range p.StrongNodes {
		world := nodes * p.Cores
		edgesPerRank := p.DegreeStrongEdges / world
		if edgesPerRank == 0 {
			edgesPerRank = 1
		}
		for _, scheme := range machine.Schemes {
			pl.add(cellName("fig6b", nodes, scheme), func() Row {
				return degreeRun(p, nodes, scheme, p.DegreeStrongVertices, edgesPerRank)
			})
		}
	}
	return pl
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
