package machine

import "testing"

// testTopologies covers square, wide, tall, degenerate-node, and
// degenerate-core shapes; NLNR's layer arithmetic is exercised both when
// nodes%cores == 0 and when it is not.
var testTopologies = [][2]int{{1, 1}, {1, 4}, {4, 1}, {2, 3}, {4, 4}, {6, 4}, {5, 3}}

// routeShapes are the shapes every (cur, dst) pair is checked on: C = 1
// (the divider's multiplier is 2^shift, not a wrapped 2^64), N = 1,
// N = C, and NLNR residue classes that do and do not divide the node
// count. sampledRouteShapes are paper-sized worlds, checked from a few
// ranks to every destination.
var (
	routeShapes        = [][2]int{{1, 5}, {4, 1}, {2, 2}, {3, 5}, {7, 3}, {6, 4}}
	sampledRouteShapes = [][2]int{{64, 32}, {256, 36}, {1024, 36}}
)

// sampleRanks returns n ranks spread over topo, always including the
// first and last rank and a rank whose node lies in its own NLNR
// residue class (core == node mod C) and one whose node does not.
func sampleRanks(topo Topology, n int) []Rank {
	world := topo.WorldSize()
	out := []Rank{0, Rank(world - 1), topo.RankOf(topo.Nodes()-1, topo.LayerOffset(topo.Nodes()-1))}
	if topo.Cores() > 1 {
		out = append(out, topo.RankOf(topo.Nodes()-1, (topo.LayerOffset(topo.Nodes()-1)+1)%topo.Cores()))
	}
	for i := 0; len(out) < n; i++ {
		out = append(out, Rank((i*7919+13)%world))
	}
	return out
}

// TestRouterMatchesNextHop: the router's arithmetic must agree with
// Topology.NextHop for every scheme, on every (cur, dst) pair of the
// small shapes and from sampled ranks of the large ones.
func TestRouterMatchesNextHop(t *testing.T) {
	check := func(topo Topology, curs []Rank) {
		for _, s := range Schemes {
			for _, cur := range curs {
				rt := topo.NewRouter(s, cur)
				for dst := Rank(0); int(dst) < topo.WorldSize(); dst++ {
					if got, want := rt.Next(dst), topo.NextHop(s, cur, dst); got != want {
						t.Fatalf("%v %v: Router(%d).Next(%d) = %d, NextHop = %d",
							topo, s, cur, dst, got, want)
					}
				}
			}
		}
	}
	for _, shape := range append(routeShapes, testTopologies...) {
		topo := New(shape[0], shape[1])
		all := make([]Rank, topo.WorldSize())
		for r := range all {
			all[r] = Rank(r)
		}
		check(topo, all)
	}
	for _, shape := range sampledRouteShapes {
		topo := New(shape[0], shape[1])
		check(topo, sampleRanks(topo, 8))
	}
}

// TestCoreDividerExact: DivMod must equal / and % on every rank of
// every shape up to 40×40, and at the top of the range and around
// every multiple of C on worlds of the maximum size, 2^24 ranks, where
// the multiplier's rounding error is largest.
func TestCoreDividerExact(t *testing.T) {
	check := func(topo Topology, x int) {
		c := topo.Cores()
		if q, r := topo.CoreDivider().DivMod(x); q != x/c || r != x%c {
			t.Fatalf("%v: DivMod(%d) = (%d, %d), want (%d, %d)", topo, x, q, r, x/c, x%c)
		}
	}
	for n := 1; n <= 40; n++ {
		for c := 1; c <= 40; c++ {
			topo := New(n, c)
			for x := 0; x < topo.WorldSize(); x++ {
				check(topo, x)
			}
		}
	}
	for _, c := range []int{1, 2, 3, 7, 32, 36, 1000, 4093, 1 << 12, 1 << 24} {
		topo := New(1<<24/c, c)
		world := topo.WorldSize()
		for x := max(0, world-4*c); x < world; x++ {
			check(topo, x)
		}
		for x := c - 1; x < world; x += c * 997 {
			check(topo, x)
			check(topo, x+1)
		}
	}
}

// TestHopPartnersCoverNextHops: HopPartners is the dense slot universe a
// coalescing mailbox sizes its buffers from, so every next hop the router
// can ever emit for a non-self destination must be a member.
func TestHopPartnersCoverNextHops(t *testing.T) {
	for _, shape := range testTopologies {
		topo := New(shape[0], shape[1])
		for _, s := range Schemes {
			for cur := Rank(0); int(cur) < topo.WorldSize(); cur++ {
				members := map[Rank]bool{}
				prev := Rank(-1)
				for _, q := range topo.HopPartners(s, cur) {
					if q == cur {
						t.Fatalf("%v %v: HopPartners(%d) contains self", topo, s, cur)
					}
					if q <= prev {
						t.Fatalf("%v %v: HopPartners(%d) not strictly ascending: %v",
							topo, s, cur, topo.HopPartners(s, cur))
					}
					prev = q
					members[q] = true
				}
				for dst := Rank(0); int(dst) < topo.WorldSize(); dst++ {
					if dst == cur {
						continue
					}
					if hop := topo.NextHop(s, cur, dst); !members[hop] {
						t.Fatalf("%v %v: NextHop(%d→%d) = %d outside HopPartners %v",
							topo, s, cur, dst, hop, topo.HopPartners(s, cur))
					}
				}
			}
		}
	}
}

// TestHopPartnersCoverBroadcastTargets: the mailbox broadcast fan-outs
// transmit to same-node peers and to the scheme's remote-partner channel
// set; both must sit inside the slot universe.
func TestHopPartnersCoverBroadcastTargets(t *testing.T) {
	for _, shape := range testTopologies {
		topo := New(shape[0], shape[1])
		for _, s := range Schemes {
			for cur := Rank(0); int(cur) < topo.WorldSize(); cur++ {
				members := map[Rank]bool{}
				for _, q := range topo.HopPartners(s, cur) {
					members[q] = true
				}
				for _, q := range topo.LocalRanks(cur) {
					if q != cur && !members[q] {
						t.Fatalf("%v %v: local peer %d of %d outside HopPartners", topo, s, q, cur)
					}
				}
				if s != NoRoute {
					for _, q := range topo.RemotePartners(s, cur) {
						if !members[q] {
							t.Fatalf("%v %v: remote partner %d of %d outside HopPartners", topo, s, q, cur)
						}
					}
				}
			}
		}
	}
}
