package machine

import (
	"math/bits"
	"sort"
)

// CoreDivider splits a rank into (node, core), or a node into (layer,
// layer offset), with a multiply and a shift in place of a hardware
// divide. It is the arithmetic under the per-record routing path, which
// computes every next hop rather than looking it up in a world-sized
// table. The zero value is invalid; use Topology.CoreDivider.
type CoreDivider struct {
	cores, mul uint64
	shift      uint
}

// CoreDivider returns a divider by the core count C that is exact for
// every x in [0, WorldSize()). With 2^shift > P·C and mul = ⌈2^shift/C⌉
// the rounding error x·(mul − 2^shift/C)/2^shift stays below x/(P·C) <
// 1/C, too small to carry x/C past its floor; and since 2^shift ≤ 2·P·C,
// x·mul < 2·P² + P fits in 64 bits for P ≤ 2^24. C = 1 needs no special
// case: mul is 2^shift and the quotient is x itself.
func (t Topology) CoreDivider() CoreDivider {
	c := uint64(t.cores)
	shift := uint(bits.Len64(uint64(t.WorldSize()) * c))
	return CoreDivider{cores: c, mul: (1<<shift + c - 1) / c, shift: shift}
}

// DivMod returns x / C and x % C for x in [0, WorldSize()).
func (d CoreDivider) DivMod(x int) (q, r int) {
	u := uint64(x)
	qu := u * d.mul >> (d.shift & 63)
	return int(qu), int(u - qu*d.cores)
}

// Router routes for one (scheme, rank) pair: Topology.NextHop with the
// rank's own coordinates precomputed, so that a next hop costs one or two
// CoreDivider splits and a few compares, and the router's size does not
// depend on the world's. The ygm mailbox fuses the same arithmetic with
// its coalescing-buffer layout, going from a destination straight to a
// buffer slot.
type Router struct {
	scheme Scheme
	cur    Rank
	// base is the first rank of cur's node; core is cur's core offset and
	// layer its node's layer offset, node mod C.
	node, base, core, layer int
	cores                   int
	div                     CoreDivider
}

// NewRouter returns the router for rank cur under scheme s.
func (t Topology) NewRouter(s Scheme, cur Rank) *Router {
	if s < NoRoute || s > NLNR {
		panic("machine: unknown scheme")
	}
	node := t.Node(cur)
	return &Router{
		scheme: s, cur: cur,
		node: node, base: node * t.cores, core: t.Core(cur), layer: t.LayerOffset(node),
		cores: t.cores, div: t.CoreDivider(),
	}
}

// Next returns the next hop toward dst, a valid rank. It is equivalent
// to Topology.NextHop for the scheme and rank the Router was built for.
// Each scheme computes its candidate hops and selects one rather than
// branching on the kind of hop dst needs, which follows no pattern a
// branch predictor could learn.
func (r *Router) Next(dst Rank) Rank {
	if dst == r.cur || r.scheme == NoRoute {
		return dst
	}
	n, k := r.div.DivMod(int(dst))
	switch r.scheme {
	case NodeLocal:
		// Align the core locally (on cur's node, base+k is dst itself),
		// then cross on the matching core.
		hop := Rank(r.base + k)
		if k == r.core {
			hop = dst
		}
		return hop
	case NodeRemote:
		// Cross on cur's core, then align locally.
		hop := Rank(n*r.cores + r.core)
		if n == r.node {
			hop = dst
		}
		return hop
	}
	// NLNR: the sender-side intermediary for node n is core l = n mod C
	// (on cur's own node, dst's core k, which makes base+l dst itself);
	// it crosses to core (node mod C) of node n.
	_, l := r.div.DivMod(n)
	if n == r.node {
		l = k
	}
	hop, remote := Rank(r.base+l), Rank(n*r.cores+r.layer)
	if l == r.core {
		hop = remote
	}
	return hop
}

// HopPartners returns every rank that r can ever transmit a packet to
// under scheme s, in ascending order: its same-node peers plus the
// RemotePartners channel set (for NoRoute, simply every other rank).
// This is the dense slot universe a coalescing mailbox needs — both
// unicast forwarding (every NextHop output) and broadcast fan-out stay
// within this set.
func (t Topology) HopPartners(s Scheme, r Rank) []Rank {
	if s == NoRoute {
		out := make([]Rank, 0, t.WorldSize()-1)
		for q := Rank(0); int(q) < t.WorldSize(); q++ {
			if q != r {
				out = append(out, q)
			}
		}
		return out
	}
	out := t.RemotePartners(s, r)
	for _, q := range t.LocalRanks(r) {
		if q != r {
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
