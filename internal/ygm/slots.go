package ygm

import (
	"fmt"

	"ygm/internal/codec"
	"ygm/internal/machine"
)

// hopBuf is one partner's coalescing buffer. The writer's backing
// storage is retained across exchanges (or replaced from the transport
// buffer pool on zero-copy handoff), so a buffer never allocates in
// steady state.
type hopBuf struct {
	hop   machine.Rank
	local bool // hop shares this rank's node
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

// initSlots lays the stages' buffers out over the hop universe and
// builds the one world-sized rank→slot index they all share. With staged
// set, the scheme's phases get two buffer generations each; otherwise
// one stage with one generation carries everything.
//
// A routing-mutation hook (testing only) widens the universe to every
// rank, laid out as NoRoute's, so deliberately wrong hops reach the
// transport and the delivery oracle — rather than a slot-table panic —
// is what catches them.
func (c *core) initSlots(staged bool) error {
	universe := c.opts.Scheme
	if universe < 0 || int(universe) >= len(schemePhases) {
		return fmt.Errorf("ygm: unknown scheme %v", universe)
	}
	if c.opts.Hooks != nil && c.opts.Hooks.NextHop != nil {
		universe = machine.NoRoute
	}
	phases := schemePhases[universe]
	if !staged {
		phases = "a"
	}
	topo := c.p.Topo()
	hops, nLocal := hopUniverse(topo, universe, c.me)
	c.slotOf = make([]int32, topo.WorldSize())
	for i := range c.slotOf {
		c.slotOf[i] = -1
	}
	for i, hop := range hops {
		c.slotOf[hop] = int32(i)
	}

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
			out[i].hop, out[i].local = hop, topo.SameNode(c.me, hop)
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
