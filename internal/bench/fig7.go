package bench

import (
	"ygm/internal/apps"
	"ygm/internal/graph"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// ccRun executes connected components across the world and returns its
// row, including the broadcast and delegate counts Fig. 7a tracks.
func ccRun(p Preset, nodes int, scheme machine.Scheme, scale, edgesPerRank int) Row {
	world := nodes * p.Cores
	cfg := apps.ConnectedComponentsConfig{
		Mailbox:      ygm.Options{Scheme: scheme, Capacity: p.MailboxCap},
		Scale:        scale,
		EdgesPerRank: edgesPerRank,
		Params:       graph.Graph500,
		DelegateFrac: p.CCDelegateFrac,
		Seed:         p.Seed,
	}
	rep, ex := runWorld(p, nodes, nil, func(proc *transport.Proc, ex *extras) error {
		res, err := apps.ConnectedComponents(proc, cfg)
		if err != nil {
			return err
		}
		ex.add("broadcasts", float64(res.Broadcasts))
		ex.setMax("delegates", float64(res.Delegates))
		ex.setMax("passes", float64(res.Passes))
		ex.setMax("setup_end", res.SetupEnd)
		return nil
	})
	totalEdges := float64(edgesPerRank) * float64(world)
	row := Row{
		Labels: schemeLabel(nodes, scheme),
		Values: opPhaseValues(rep, ex.maxs["setup_end"], totalEdges*ex.maxs["passes"], "edges"),
	}
	row.Values = append(row.Values,
		Value{Key: "broadcasts", Val: ex.sums["broadcasts"]},
		Value{Key: "delegates", Val: ex.maxs["delegates"]},
		Value{Key: "passes", Val: ex.maxs["passes"]},
	)
	return row
}

// fig7aPlan: connected components weak scaling on Graph500 RMAT graphs. The
// vertex count grows with the world (scale = per-rank log + log2(P)),
// the delegate threshold scales with the expected maximum degree, and
// the broadcast count per point is reported alongside time — the growth
// the paper plots on the secondary axis.
func fig7aPlan(p Preset) Plan {
	pl := Plan{Table: &Table{ID: "fig7a", Title: "connected components weak scaling (RMAT, delegates + broadcasts)"}}
	for _, nodes := range p.WeakNodes {
		world := nodes * p.Cores
		scale := p.CCVerticesPerRankLog + log2(world)
		for _, scheme := range machine.Schemes {
			pl.add(cellName("fig7a", nodes, scheme), func() Row {
				return ccRun(p, nodes, scheme, scale, p.CCEdgesPerRank)
			})
		}
	}
	return pl
}

// fig7bPlan: connected components strong scaling (fixed graph).
func fig7bPlan(p Preset) Plan {
	pl := Plan{Table: &Table{ID: "fig7b", Title: "connected components strong scaling (fixed RMAT graph)"}}
	for _, nodes := range p.StrongNodes {
		world := nodes * p.Cores
		edgesPerRank := p.CCStrongEdges / world
		if edgesPerRank == 0 {
			edgesPerRank = 1
		}
		for _, scheme := range machine.Schemes {
			pl.add(cellName("fig7b", nodes, scheme), func() Row {
				return ccRun(p, nodes, scheme, p.CCStrongScale, edgesPerRank)
			})
		}
	}
	return pl
}
