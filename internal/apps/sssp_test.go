package apps

import (
	"sync"
	"testing"

	"ygm/internal/graph"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// ssspOracle runs sequential Dijkstra (via Bellman-Ford style relaxation,
// weights are small positive integers) on the regenerated global graph.
func ssspOracle(cfg SSSPConfig, world int) []uint64 {
	n := uint64(1) << uint(cfg.Scale)
	type arc struct {
		to, w uint64
	}
	adj := make([][]arc, n)
	for r := 0; r < world; r++ {
		g := graph.NewRMAT(cfg.Params, cfg.Scale, cfg.Seed*32452843+int64(r))
		for k := 0; k < cfg.EdgesPerRank; k++ {
			e := g.Next()
			w := ArcWeight(e.U, e.V, cfg.MaxWeight)
			adj[e.U] = append(adj[e.U], arc{e.V, w})
			adj[e.V] = append(adj[e.V], arc{e.U, w})
		}
	}
	dist := make([]uint64, n)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[cfg.Root] = 0
	// Simple queue-based Bellman-Ford (SPFA); graphs are small.
	queue := []uint64{cfg.Root}
	inQ := make([]bool, n)
	inQ[cfg.Root] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQ[u] = false
		for _, a := range adj[u] {
			if nd := dist[u] + a.w; nd < dist[a.to] {
				dist[a.to] = nd
				if !inQ[a.to] {
					inQ[a.to] = true
					queue = append(queue, a.to)
				}
			}
		}
	}
	return dist
}

func TestSSSPMatchesOracle(t *testing.T) {
	for _, scheme := range []machine.Scheme{machine.NoRoute, machine.NLNR} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := SSSPConfig{
				Mailbox:      ygm.Options{Scheme: scheme, Capacity: 64},
				Scale:        8,
				EdgesPerRank: 200,
				Params:       graph.Graph500,
				Seed:         7,
				Root:         0,
				MaxWeight:    12,
			}
			const world = 6
			results := make([]*SSSPResult, world)
			var mu sync.Mutex
			runApps(t, 3, 2, func(p *transport.Proc) error {
				res, err := SSSP(p, cfg)
				if err != nil {
					return err
				}
				mu.Lock()
				results[p.Rank()] = res
				mu.Unlock()
				return nil
			})
			want := ssspOracle(cfg, world)
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
			if results[0].Visited != wantVisited || wantVisited < 10 {
				t.Fatalf("visited = %d, want %d (>= 10)", results[0].Visited, wantVisited)
			}
		})
	}
}

func TestSSSPRejectsBadConfig(t *testing.T) {
	runApps(t, 1, 1, func(p *transport.Proc) error {
		if _, err := SSSP(p, SSSPConfig{}); err == nil {
			t.Error("zero config accepted")
		}
		if _, err := SSSP(p, SSSPConfig{Scale: 4, Params: graph.Uniform4, Root: 1 << 10}); err == nil {
			t.Error("out-of-range root accepted")
		}
		return nil
	})
}
