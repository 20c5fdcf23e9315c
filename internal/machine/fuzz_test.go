package machine

import "testing"

// FuzzTopologyRanks drives the addressing and routing algebra with
// arbitrary topology shapes and rank pairs: rank<->(node,core) must
// round-trip, and every unicast path must satisfy the same properties
// the simulation-fuzz oracle enforces (terminates at dst, within the
// scheme's hop bound, no self-hops, channel-conformant remote edges,
// accepted by CheckHops).
func FuzzTopologyRanks(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint16(0), uint16(0), uint8(0))
	f.Add(uint8(4), uint8(3), uint16(5), uint16(11), uint8(3))
	f.Add(uint8(2), uint8(8), uint16(1), uint16(15), uint8(2))
	f.Add(uint8(7), uint8(3), uint16(20), uint16(2), uint8(1))
	f.Add(uint8(64), uint8(64), uint16(4095), uint16(0), uint8(3))
	f.Fuzz(func(t *testing.T, nodes, cores uint8, a, b uint16, schemeSel uint8) {
		n := int(nodes%64) + 1
		c := int(cores%64) + 1
		topo := New(n, c)
		world := topo.WorldSize()
		src := Rank(int(a) % world)
		dst := Rank(int(b) % world)
		s := Schemes[int(schemeSel)%len(Schemes)]

		for _, r := range []Rank{src, dst} {
			if got := topo.RankOf(topo.Node(r), topo.Core(r)); got != r {
				t.Fatalf("%v: rank %d round-trips to %d", topo, r, got)
			}
			if !topo.Valid(r) {
				t.Fatalf("%v: rank %d invalid", topo, r)
			}
		}
		if src == dst {
			if got := topo.NextHop(s, src, dst); got != dst {
				t.Fatalf("%v %s: NextHop(%d,%d) = %d", topo, s, src, dst, got)
			}
			return
		}
		path := topo.Path(s, src, dst)
		if len(path) == 0 || path[len(path)-1] != dst {
			t.Fatalf("%v %s: Path(%d,%d) = %v does not reach dst", topo, s, src, dst, path)
		}
		if len(path) > MaxHops(s) {
			t.Fatalf("%v %s: Path(%d,%d) = %v exceeds %d hops", topo, s, src, dst, path, MaxHops(s))
		}
		prev := src
		for _, h := range path {
			if h == prev {
				t.Fatalf("%v %s: Path(%d,%d) = %v self-hop", topo, s, src, dst, path)
			}
			if !topo.SameNode(prev, h) {
				if err := topo.CheckRemoteEdge(s, prev, h); err != nil {
					t.Fatalf("%v %s: Path(%d,%d) = %v: %v", topo, s, src, dst, path, err)
				}
			}
			prev = h
		}
		if err := topo.CheckHops(s, src, dst, path); err != nil {
			t.Fatalf("%v %s: CheckHops rejected Path(%d,%d) = %v: %v", topo, s, src, dst, path, err)
		}
	})
}

// FuzzRouter checks Router.Next against Topology.NextHop on arbitrary
// shapes up to 255×255, schemes and (cur, dst) pairs. The seed corpus
// in testdata/fuzz/FuzzRouter includes C = 1, where a 2^64/C reciprocal
// would wrap to 0.
func FuzzRouter(f *testing.F) {
	f.Add(uint8(5), uint8(0), uint16(3), uint16(1), uint8(3))
	f.Add(uint8(255), uint8(36), uint16(9000), uint16(17), uint8(3))
	f.Fuzz(func(t *testing.T, nodes, cores uint8, a, b uint16, schemeSel uint8) {
		topo := New(int(nodes)+1, int(cores)+1)
		world := topo.WorldSize()
		cur, dst := Rank(int(a)%world), Rank(int(b)%world)
		s := Schemes[int(schemeSel)%len(Schemes)]
		if got, want := topo.NewRouter(s, cur).Next(dst), topo.NextHop(s, cur, dst); got != want {
			t.Fatalf("%v %v: Router(%d).Next(%d) = %d, NextHop = %d", topo, s, cur, dst, got, want)
		}
	})
}
