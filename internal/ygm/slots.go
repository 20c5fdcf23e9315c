package ygm

import (
	"fmt"
	"math"

	"ygm/internal/codec"
	"ygm/internal/machine"
)

// hopBuf is one partner's coalescing buffer. The writer's backing
// storage is retained across exchanges, so a buffer never allocates in
// steady state.
type hopBuf struct {
	hop   machine.Rank
	w     codec.Writer
	count int
}

// stage is one exchange phase: the contiguous slot range of the hop
// universe it moves, and that range's buffers. Records queued in time
// for the stage's next exchange go to cur; records that arrive too late
// — spawned while the stage itself or a later one is exchanging — go to
// next and ship one exchange later. A mailbox that never exchanges stage
// by stage (the lazy one) has a single stage carrying every hop and no
// next.
type stage struct {
	kind byte  // which part of the universe: see schemePhases
	base int32 // slot index of cur[0] and next[0]
	cur  []hopBuf
	next []hopBuf
}

// schemePhases lists each routing scheme's exchange phases in order
// (Section III) by the half of the hop universe they move: l the
// same-node hops, r the remote ones, a all of them.
var schemePhases = [...]string{
	machine.NoRoute:    "a",
	machine.NodeLocal:  "lr",
	machine.NodeRemote: "rl",
	machine.NLNR:       "lrl",
}

// maxStages is the longest phase sequence (NLNR's).
const maxStages = 3

// hopUniverse returns every rank me can transmit to under scheme s —
// unicast next hops and broadcast fan-out both stay inside it — with the
// nLocal same-node ranks first, so each phase's hops are a contiguous
// slot range. NoRoute has a single all-carrying phase and keeps plain
// rank order.
func hopUniverse(topo machine.Topology, s machine.Scheme, me machine.Rank) (hops []machine.Rank, nLocal int) {
	if s == machine.NoRoute {
		return topo.HopPartners(s, me), 0
	}
	remote := topo.RemotePartners(s, me)
	hops = make([]machine.Rank, 0, topo.Cores()-1+len(remote))
	for c := 0; c < topo.Cores(); c++ {
		if r := topo.RankOf(topo.Node(me), c); r != me {
			hops = append(hops, r)
		}
	}
	return append(hops, remote...), topo.Cores() - 1
}

// initSlots builds the router that finds a hop's slot in the hop
// universe and lays the stages' buffers out over that universe. With
// staged set, the scheme's phases get two buffer generations each;
// otherwise one stage with one generation carries everything.
func (c *core) initSlots(staged bool) error {
	if s := c.opts.Scheme; s < 0 || int(s) >= len(schemePhases) {
		return fmt.Errorf("ygm: unknown scheme %v", s)
	}
	topo := c.p.Topo()
	c.rt = newHopRouter(topo, c.opts.Scheme, c.me, c.opts.Hooks)
	phases := schemePhases[c.rt.layout]
	if !staged {
		phases = "a"
	}
	hops, nLocal := hopUniverse(topo, c.rt.layout, c.me)

	c.stages = c.stageStore[:len(phases)]
	total := 0
	for s := range c.stages {
		c.stages[s].kind = phases[s]
		lo, hi := c.stages[s].span(nLocal, len(hops))
		total += hi - lo
	}
	if staged {
		total *= 2
	}
	// One backing array serves every stage and generation.
	bufs := make([]hopBuf, total)
	carve := func(part []machine.Rank) []hopBuf {
		out := bufs[:len(part):len(part)]
		bufs = bufs[len(part):]
		for i, hop := range part {
			out[i].hop = hop
		}
		return out
	}
	for s := range c.stages {
		st := &c.stages[s]
		lo, hi := st.span(nLocal, len(hops))
		st.base = int32(lo)
		st.cur = carve(hops[lo:hi])
		if staged {
			st.next = carve(hops[lo:hi])
		}
	}
	c.active = make([]*hopBuf, 0, total)
	return nil
}

// span returns the half-open slot range the stage covers in a universe
// of n hops whose first nLocal are same-node.
func (st *stage) span(nLocal, n int) (lo, hi int) {
	switch st.kind {
	case 'l':
		return 0, nLocal
	case 'r':
		return nLocal, n
	}
	return 0, n
}

// hopRouter finds a hop's slot in the hop universe by arithmetic: its
// state is O(1), not a world-sized table, and route fuses NextHop into
// the lookup so that a unicast record goes from its destination to its
// coalescing buffer in one computation.
type hopRouter struct {
	topo   machine.Topology
	scheme machine.Scheme
	me     machine.Rank
	// layout is the universe's layout: the scheme, or NoRoute when the
	// NextHop mutation hook widens it.
	layout  machine.Scheme
	nextHop func(t machine.Topology, s machine.Scheme, cur, dst machine.Rank) machine.Rank
	div     machine.CoreDivider
	// node, off and layer are me's node, core offset and node mod C;
	// base is the node's first rank, and nLocal = C−1 the number of
	// same-node slots.
	node, off, layer, base, nLocal int
	// ownClassNode is node when it lies in core off's NLNR residue class
	// (layer == off) and so holds no slot of its own; MaxInt otherwise.
	ownClassNode int
}

// newHopRouter returns the router for rank me's hop universe under
// scheme s. A NextHop mutation hook (testing only) widens the universe
// to every rank, laid out as NoRoute's, so deliberately wrong hops
// reach the transport and the delivery oracle — rather than a
// missing-slot panic — is what catches them.
func newHopRouter(topo machine.Topology, s machine.Scheme, me machine.Rank, hooks *TestHooks) hopRouter {
	rt := hopRouter{
		topo: topo, scheme: s, me: me, layout: s,
		div: topo.CoreDivider(), node: topo.Node(me), off: topo.Core(me), nLocal: topo.Cores() - 1,
	}
	rt.base = rt.node * topo.Cores()
	rt.layer, rt.ownClassNode = topo.LayerOffset(rt.node), math.MaxInt
	if rt.layer == rt.off {
		rt.ownClassNode = rt.node
	}
	if hooks != nil && hooks.NextHop != nil {
		rt.layout, rt.nextHop = machine.NoRoute, hooks.NextHop
	}
	return rt
}

// hooked returns dst, or the NextHop mutation hook's hop toward dst
// when one is installed. The hook's universe is laid out as NoRoute's,
// where every hop is its own destination, so route maps that hop to
// its slot.
func (rt *hopRouter) hooked(dst machine.Rank) machine.Rank {
	if rt.nextHop == nil {
		return dst
	}
	return rt.hookHop(dst)
}

// route returns the slot of the next hop toward dst ≠ me: one or two
// CoreDivider splits and a few compares. Each scheme computes its
// same-node and its crossing candidate and selects one, rather than
// branching on which kind of hop dst needs: destinations arrive in no
// predictable order, and a mispredicted branch per record would cost
// more than all of the arithmetic. dst ≠ me also means a
// same-node dst never has core off, so the tests for a crossing hop
// (k == off, l == off) need no separate n ≠ node term.
func (rt *hopRouter) route(dst machine.Rank) int32 {
	switch rt.layout {
	case machine.NLNR:
		// Off node, the sender-side intermediary is core l = n mod C,
		// and this rank crosses itself when it is that core; on node,
		// l is dst's own core.
		n, _ := rt.div.DivMod(int(dst))
		q, l := rt.div.DivMod(n)
		if k := int(dst) - rt.base; n == rt.node {
			l = k
		}
		slot, remote := rt.localSlot(l), rt.nlnrSlot(n, q)
		if l == rt.off {
			slot = remote
		}
		return slot
	case machine.NodeLocal:
		// Align the core locally first; cross on a matching core.
		n, k := rt.div.DivMod(int(dst))
		slot, remote := rt.localSlot(k), rt.remoteSlot(n)
		if k == rt.off {
			slot = remote
		}
		return slot
	case machine.NodeRemote:
		n, k := rt.div.DivMod(int(dst))
		slot, remote := rt.localSlot(k), rt.remoteSlot(n)
		if n != rt.node {
			slot = remote
		}
		return slot
	}
	return rt.rankSlot(dst)
}

// hookHop asks the NextHop mutation hook for the hop toward dst.
func (rt *hopRouter) hookHop(dst machine.Rank) machine.Rank {
	hop := rt.nextHop(rt.topo, rt.scheme, rt.me, dst)
	if rt.slotOf(hop) < 0 {
		// Includes a self-hop: no rank holds a slot for itself.
		panic(fmt.Sprintf("ygm: rank %d has no coalescing slot for hop %d under %v",
			rt.me, hop, rt.scheme))
	}
	return hop
}

// slotOf returns hop's index in the hop universe, -1 outside it.
func (rt *hopRouter) slotOf(hop machine.Rank) int32 {
	if hop == rt.me || !rt.topo.Valid(hop) {
		return -1
	}
	if rt.layout == machine.NoRoute {
		return rt.rankSlot(hop)
	}
	n, k := rt.div.DivMod(int(hop))
	switch {
	case n == rt.node:
		return rt.localSlot(k)
	case rt.layout != machine.NLNR:
		if k == rt.off {
			return rt.remoteSlot(n)
		}
	default:
		if q, l := rt.div.DivMod(n); l == rt.off && k == rt.layer {
			return rt.nlnrSlot(n, q)
		}
	}
	return -1
}

// The slot of each kind of hop in hopUniverse's layout, which puts the
// C−1 same-node cores first and then the remote partners in ascending
// order.

// rankSlot places rank r ≠ me in NoRoute's layout, rank order.
func (rt *hopRouter) rankSlot(r machine.Rank) int32 {
	if r > rt.me {
		r--
	}
	return int32(r)
}

// localSlot places core k ≠ off of me's node.
func (rt *hopRouter) localSlot(k int) int32 {
	if k > rt.off {
		k--
	}
	return int32(k)
}

// remoteSlot places the NodeLocal or NodeRemote partner on node n: one
// per other node.
func (rt *hopRouter) remoteSlot(n int) int32 {
	if n > rt.node {
		n--
	}
	return int32(rt.nLocal + n)
}

// nlnrSlot places the NLNR partner on node n = q·C + off: one per node
// of core off's residue class, less me's own node when that is in the
// class.
func (rt *hopRouter) nlnrSlot(n, q int) int32 {
	if n > rt.ownClassNode {
		q--
	}
	return int32(rt.nLocal + q)
}
