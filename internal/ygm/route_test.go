package ygm

import (
	"testing"

	"ygm/internal/machine"
)

// TestHopRouterMatchesUniverse: a hop's arithmetic slot must be its
// index in hopUniverse, and route(hooked(dst)) must be the slot of
// Topology.NextHop's hop, for every scheme — and for the universe a
// NextHop mutation hook widens to — on every (cur, dst) pair of small
// shapes and from sampled ranks of paper-sized ones. slotOf must also
// reject every rank outside the universe.
func TestHopRouterMatchesUniverse(t *testing.T) {
	exhaustive := [][2]int{{1, 5}, {4, 1}, {2, 2}, {3, 5}, {7, 3}, {6, 4}, {1, 1}, {2, 8}}
	sampled := [][2]int{{64, 32}, {256, 36}, {1024, 36}}
	check := func(topo machine.Topology, curs []machine.Rank) {
		for _, s := range machine.Schemes {
			for _, hooked := range []bool{false, true} {
				var hooks *TestHooks
				if hooked {
					hooks = &TestHooks{NextHop: machine.Topology.NextHop}
				}
				for _, cur := range curs {
					rt := newHopRouter(topo, s, cur, hooks)
					if hooked && rt.layout != machine.NoRoute {
						t.Fatalf("%v %v: a NextHop hook left the universe laid out as %v", topo, s, rt.layout)
					}
					hops, _ := hopUniverse(topo, rt.layout, cur)
					slot := make(map[machine.Rank]int32, len(hops))
					for i, h := range hops {
						slot[h] = int32(i)
					}
					for r := machine.Rank(-1); int(r) <= topo.WorldSize(); r++ {
						want, in := slot[r]
						if !in {
							want = -1
						}
						if got := rt.slotOf(r); got != want {
							t.Fatalf("%v %v hooked=%v: rank %d slotOf(%d) = %d, want %d",
								topo, s, hooked, cur, r, got, want)
						}
					}
					for dst := machine.Rank(0); int(dst) < topo.WorldSize(); dst++ {
						if dst == cur {
							continue
						}
						hop := topo.NextHop(s, cur, dst)
						if got, want := rt.route(rt.hooked(dst)), slot[hop]; got != want {
							t.Fatalf("%v %v hooked=%v: rank %d route(hooked(%d)) = %d, want slot %d of hop %d",
								topo, s, hooked, cur, dst, got, want, hop)
						}
					}
				}
			}
		}
	}
	for _, shape := range exhaustive {
		topo := machine.New(shape[0], shape[1])
		all := make([]machine.Rank, topo.WorldSize())
		for r := range all {
			all[r] = machine.Rank(r)
		}
		check(topo, all)
	}
	for _, shape := range sampled {
		topo := machine.New(shape[0], shape[1])
		last := topo.Nodes() - 1
		check(topo, []machine.Rank{
			0, machine.Rank(topo.WorldSize() - 1),
			topo.RankOf(last, topo.LayerOffset(last)),   // own node in its residue class
			topo.RankOf(last, topo.LayerOffset(last)-1), // and not
			machine.Rank(topo.WorldSize() / 3),
		})
	}
}
