package apps

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"ygm/internal/graph"
	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/spmat"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

func runApps(t *testing.T, nodes, cores int, body func(p *transport.Proc) error) *transport.Report {
	t.Helper()
	rep, err := transport.Run(transport.Config{
		Topo:  machine.New(nodes, cores),
		Model: netsim.Quartz(),
		Seed:  5,
	}, body)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// --- Degree counting ------------------------------------------------------

func TestDegreeCountMatchesOracle(t *testing.T) {
	const (
		nodes, cores = 2, 3
		numVertices  = 1 << 10
		edgesPerRank = 500
	)
	world := nodes * cores
	for _, scheme := range machine.Schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			var mu sync.Mutex
			results := make([]*DegreeCountResult, world)
			cfg := DegreeCountConfig{
				Mailbox:      ygm.Options{Scheme: scheme, Capacity: 64},
				NumVertices:  numVertices,
				EdgesPerRank: edgesPerRank,
				BatchSize:    200,
				NewGen: func(p *transport.Proc) graph.Generator {
					return graph.NewUniform(numVertices, 900+int64(p.Rank()))
				},
			}
			runApps(t, nodes, cores, func(p *transport.Proc) error {
				res, err := DegreeCount(p, cfg)
				if err != nil {
					return err
				}
				mu.Lock()
				results[p.Rank()] = res
				mu.Unlock()
				return nil
			})
			// Oracle: regenerate every rank's stream.
			var all []graph.Edge
			for r := 0; r < world; r++ {
				all = append(all, graph.Collect(graph.NewUniform(numVertices, 900+int64(r)), edgesPerRank)...)
			}
			want := graph.Degrees(all, numVertices)
			for v := uint64(0); v < numVertices; v++ {
				r := graph.Owner(v, world)
				got := results[r].Degrees[graph.LocalID(v, world)]
				if got != want[v] {
					t.Fatalf("%v: degree(%d) = %d, want %d", scheme, v, got, want[v])
				}
			}
		})
	}
}

func TestDegreeCountRejectsBadConfig(t *testing.T) {
	runApps(t, 1, 1, func(p *transport.Proc) error {
		if _, err := DegreeCount(p, DegreeCountConfig{}); err == nil {
			return fmt.Errorf("zero config accepted")
		}
		return nil
	})
}

// --- Connected components -------------------------------------------------

func ccOracle(cfg ConnectedComponentsConfig, world int) []uint64 {
	var all []graph.Edge
	for r := 0; r < world; r++ {
		g := graph.NewRMAT(cfg.Params, cfg.Scale, cfg.Seed*7919+int64(r))
		all = append(all, graph.Collect(g, cfg.EdgesPerRank)...)
	}
	return graph.ConnectedComponentsSeq(all, 1<<uint(cfg.Scale))
}

func checkCCLabels(t *testing.T, cfg ConnectedComponentsConfig, world int, results []*ConnectedComponentsResult) {
	t.Helper()
	want := ccOracle(cfg, world)
	n := uint64(1) << uint(cfg.Scale)
	for v := uint64(0); v < n; v++ {
		r := graph.Owner(v, world)
		got := results[r].Labels[graph.LocalID(v, world)]
		if got != want[v] {
			t.Fatalf("label(%d) = %d, want %d", v, got, want[v])
		}
	}
}

func TestConnectedComponentsNoDelegates(t *testing.T) {
	cfg := ConnectedComponentsConfig{
		Mailbox:      ygm.Options{Scheme: machine.NodeRemote, Capacity: 128},
		Scale:        8,
		EdgesPerRank: 120,
		Params:       graph.Graph500,
		Seed:         3,
	}
	const world = 6
	results := make([]*ConnectedComponentsResult, world)
	var mu sync.Mutex
	runApps(t, 2, 3, func(p *transport.Proc) error {
		res, err := ConnectedComponents(p, cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		results[p.Rank()] = res
		mu.Unlock()
		return nil
	})
	if results[0].Delegates != 0 || results[0].Broadcasts != 0 {
		t.Fatalf("no-delegate run produced %d delegates, %d broadcasts",
			results[0].Delegates, results[0].Broadcasts)
	}
	checkCCLabels(t, cfg, world, results)
}

func TestConnectedComponentsWithDelegates(t *testing.T) {
	for _, scheme := range []machine.Scheme{machine.NoRoute, machine.NodeRemote, machine.NLNR} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := ConnectedComponentsConfig{
				Mailbox:      ygm.Options{Scheme: scheme, Capacity: 128},
				Scale:        8,
				EdgesPerRank: 150,
				Params:       graph.Graph500,
				DelegateFrac: 0.1,
				Seed:         4,
			}
			const world = 8
			results := make([]*ConnectedComponentsResult, world)
			var mu sync.Mutex
			runApps(t, 4, 2, func(p *transport.Proc) error {
				res, err := ConnectedComponents(p, cfg)
				if err != nil {
					return err
				}
				mu.Lock()
				results[p.Rank()] = res
				mu.Unlock()
				return nil
			})
			if results[0].Delegates == 0 {
				t.Fatal("expected delegates on a skewed RMAT graph")
			}
			var bcasts uint64
			for _, r := range results {
				bcasts += r.Broadcasts
			}
			if bcasts == 0 {
				t.Fatal("delegate synchronization should use broadcasts")
			}
			checkCCLabels(t, cfg, world, results)
		})
	}
}

// TestConnectedComponentsDelegateCountConsistent: every rank reports the
// same (global) delegate count.
func TestConnectedComponentsDelegateCountConsistent(t *testing.T) {
	cfg := ConnectedComponentsConfig{
		Mailbox:      ygm.Options{Scheme: machine.NLNR, Capacity: 64},
		Scale:        7,
		EdgesPerRank: 100,
		Params:       graph.Graph500,
		DelegateFrac: 0.05,
		Seed:         9,
	}
	counts := make([]int, 4)
	var mu sync.Mutex
	runApps(t, 2, 2, func(p *transport.Proc) error {
		res, err := ConnectedComponents(p, cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		counts[p.Rank()] = res.Delegates
		mu.Unlock()
		return nil
	})
	for _, c := range counts {
		if c != counts[0] {
			t.Fatalf("delegate counts diverge: %v", counts)
		}
	}
}

// --- SpMV -------------------------------------------------------------------

func spmvOracle(cfg SpMVConfig, world, lastIter int) []float64 {
	n := uint64(1) << uint(cfg.Scale)
	var trips []spmat.Triplet
	for r := 0; r < world; r++ {
		g := graph.NewRMAT(cfg.Params, cfg.Scale, cfg.Seed*104729+int64(r))
		for k := 0; k < cfg.EdgesPerRank; k++ {
			e := g.Next()
			trips = append(trips, spmat.Triplet{Row: e.V, Col: e.U, Val: MatrixValue(e.U, e.V)})
		}
	}
	x := make([]float64, n)
	for j := range x {
		x[j] = XValue(uint64(j), lastIter)
	}
	return spmat.SpMVSeq(trips, x)
}

func checkSpMV(t *testing.T, cfg SpMVConfig, world int, results []*SpMVResult) {
	t.Helper()
	want := spmvOracle(cfg, world, cfg.Iterations-1)
	n := uint64(1) << uint(cfg.Scale)
	for i := uint64(0); i < n; i++ {
		r := graph.Owner(i, world)
		got := results[r].Y[graph.LocalID(i, world)]
		if math.Abs(got-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("y[%d] = %g, want %g", i, got, want[i])
		}
	}
}

func TestSpMVMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		frac float64
	}{
		{"delegates", 0.1},
		{"noDelegates", 0},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := SpMVConfig{
				Mailbox:      ygm.Options{Scheme: machine.NLNR, Capacity: 128},
				Scale:        7,
				EdgesPerRank: 200,
				Params:       graph.Graph500,
				DelegateFrac: tc.frac,
				Seed:         6,
				Iterations:   2,
			}
			const world = 8
			results := make([]*SpMVResult, world)
			var mu sync.Mutex
			runApps(t, 4, 2, func(p *transport.Proc) error {
				res, err := SpMV(p, cfg)
				if err != nil {
					return err
				}
				mu.Lock()
				results[p.Rank()] = res
				mu.Unlock()
				return nil
			})
			if tc.frac > 0 && results[0].Delegates == 0 {
				t.Fatal("expected delegates")
			}
			if tc.frac == 0 && results[0].Delegates != 0 {
				t.Fatal("unexpected delegates")
			}
			checkSpMV(t, cfg, world, results)
		})
	}
}

// TestSpMVSchemesAgree: the result must not depend on the routing scheme.
func TestSpMVSchemesAgree(t *testing.T) {
	cfg := SpMVConfig{
		Scale:        6,
		EdgesPerRank: 150,
		Params:       graph.Uniform4,
		Seed:         8,
		Iterations:   1,
	}
	const world = 4
	var base []float64
	for _, scheme := range machine.Schemes {
		cfg.Mailbox = ygm.Options{Scheme: scheme, Capacity: 32}
		results := make([]*SpMVResult, world)
		var mu sync.Mutex
		runApps(t, 2, 2, func(p *transport.Proc) error {
			res, err := SpMV(p, cfg)
			if err != nil {
				return err
			}
			mu.Lock()
			results[p.Rank()] = res
			mu.Unlock()
			return nil
		})
		var flat []float64
		n := uint64(1) << uint(cfg.Scale)
		for i := uint64(0); i < n; i++ {
			flat = append(flat, results[graph.Owner(i, world)].Y[graph.LocalID(i, world)])
		}
		if base == nil {
			base = flat
			continue
		}
		for i := range base {
			if math.Abs(base[i]-flat[i]) > 1e-9 {
				t.Fatalf("%v: y[%d] = %g differs from baseline %g", scheme, i, flat[i], base[i])
			}
		}
	}
}

// --- BFS --------------------------------------------------------------------

func bfsOracle(cfg BFSConfig, world int) []uint64 {
	n := uint64(1) << uint(cfg.Scale)
	adj := make([][]uint64, n)
	for r := 0; r < world; r++ {
		g := graph.NewRMAT(cfg.Params, cfg.Scale, cfg.Seed*15485863+int64(r))
		for k := 0; k < cfg.EdgesPerRank; k++ {
			e := g.Next()
			adj[e.U] = append(adj[e.U], e.V)
			adj[e.V] = append(adj[e.V], e.U)
		}
	}
	dist := make([]uint64, n)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[cfg.Root] = 0
	queue := []uint64{cfg.Root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if dist[v] == Unreached {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

func TestBFSMatchesOracle(t *testing.T) {
	cfg := BFSConfig{
		Mailbox:      ygm.Options{Scheme: machine.NodeLocal, Capacity: 64},
		Scale:        8,
		EdgesPerRank: 250,
		Params:       graph.Graph500,
		Seed:         2,
		Root:         0,
	}
	const world = 6
	results := make([]*BFSResult, world)
	var mu sync.Mutex
	runApps(t, 3, 2, func(p *transport.Proc) error {
		res, err := BFS(p, cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		results[p.Rank()] = res
		mu.Unlock()
		return nil
	})
	want := bfsOracle(cfg, world)
	n := uint64(1) << uint(cfg.Scale)
	var wantVisited uint64
	for v := uint64(0); v < n; v++ {
		if want[v] != Unreached {
			wantVisited++
		}
		got := results[graph.Owner(v, world)].Dist[graph.LocalID(v, world)]
		if got != want[v] {
			t.Fatalf("dist(%d) = %d, want %d", v, got, want[v])
		}
	}
	if results[0].Visited != wantVisited {
		t.Fatalf("visited = %d, want %d", results[0].Visited, wantVisited)
	}
	if results[0].Visited < 2 {
		t.Fatal("degenerate test: root has no neighbors")
	}
}

// TestAppsAcrossExchangeStyles re-validates the oracle apps under the
// lazy-forwarding exchange (the figure benchmarks default to the
// paper's round-matched protocol, covered by the tests above): results
// must be identical regardless of exchange semantics.
func TestAppsAcrossExchangeStyles(t *testing.T) {
	for _, style := range []ygm.ExchangeStyle{ygm.LazyExchange, ygm.RoundExchange} {
		style := style
		t.Run(style.String(), func(t *testing.T) {
			// Degree counting.
			dcfg := DegreeCountConfig{
				Mailbox:      ygm.Options{Scheme: machine.NLNR, Capacity: 64, Exchange: style},
				NumVertices:  1 << 9,
				EdgesPerRank: 300,
				NewGen: func(p *transport.Proc) graph.Generator {
					return graph.NewUniform(1<<9, 400+int64(p.Rank()))
				},
			}
			const world = 4
			results := make([]*DegreeCountResult, world)
			var mu sync.Mutex
			runApps(t, 2, 2, func(p *transport.Proc) error {
				res, err := DegreeCount(p, dcfg)
				if err != nil {
					return err
				}
				mu.Lock()
				results[p.Rank()] = res
				mu.Unlock()
				return nil
			})
			var all []graph.Edge
			for r := 0; r < world; r++ {
				all = append(all, graph.Collect(graph.NewUniform(1<<9, 400+int64(r)), 300)...)
			}
			want := graph.Degrees(all, 1<<9)
			for v := uint64(0); v < 1<<9; v++ {
				got := results[graph.Owner(v, world)].Degrees[graph.LocalID(v, world)]
				if got != want[v] {
					t.Fatalf("%v: degree(%d) = %d, want %d", style, v, got, want[v])
				}
			}

			// SpMV with delegates.
			scfg := SpMVConfig{
				Mailbox:      ygm.Options{Scheme: machine.NodeRemote, Capacity: 64, Exchange: style},
				Scale:        7,
				EdgesPerRank: 150,
				Params:       graph.Graph500,
				DelegateFrac: 0.1,
				Seed:         5,
				Iterations:   1,
			}
			sres := make([]*SpMVResult, world)
			runApps(t, 2, 2, func(p *transport.Proc) error {
				res, err := SpMV(p, scfg)
				if err != nil {
					return err
				}
				mu.Lock()
				sres[p.Rank()] = res
				mu.Unlock()
				return nil
			})
			checkSpMV(t, scfg, world, sres)

			// Connected components with delegates and broadcasts.
			ccfg := ConnectedComponentsConfig{
				Mailbox:      ygm.Options{Scheme: machine.NodeLocal, Capacity: 64, Exchange: style},
				Scale:        7,
				EdgesPerRank: 100,
				Params:       graph.Graph500,
				DelegateFrac: 0.1,
				Seed:         6,
			}
			cres := make([]*ConnectedComponentsResult, world)
			runApps(t, 2, 2, func(p *transport.Proc) error {
				res, err := ConnectedComponents(p, ccfg)
				if err != nil {
					return err
				}
				mu.Lock()
				cres[p.Rank()] = res
				mu.Unlock()
				return nil
			})
			checkCCLabels(t, ccfg, world, cres)
		})
	}
}
