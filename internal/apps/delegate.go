package apps

import (
	"fmt"

	"ygm/internal/codec"
	"ygm/internal/graph"
	"ygm/internal/machine"
	"ygm/internal/ygm"
)

// localID is graph.LocalID for a vertex a peer's message names, as an
// index into rank's n owned vertices. The sender routed the message to
// the vertex's owner, so a vertex rank does not own, or one past its
// arrays, means the message is corrupt — not a slot to update.
func localID(v uint64, world, rank, n int) uint64 {
	l := graph.LocalID(v, world)
	if owner := graph.Owner(v, world); owner != rank || l >= uint64(n) {
		panic(fmt.Sprintf("apps: corrupt message: vertex %d (owner %d) is not one of rank %d's %d vertices", v, owner, rank, n))
	}
	return l
}

// Message type bytes of the delegate-detection phase; the protocols
// that embed it number their own types from msgFirstApp.
const (
	msgDegree   = 0 // [v]  degree increment for delegate detection
	msgDelegate = 1 // [v]  broadcast: v is a delegate
	msgFirstApp = 2
)

// delegation is the delegate-detection phase connected components and
// SpMV share: a mailbox degree count over both endpoints of every edge,
// after which each owner broadcasts its vertices whose degree reaches
// the threshold, so every rank holds the same delegate set.
type delegation struct {
	world, rank int
	degrees     []uint64        // owned-vertex degrees
	delegates   map[uint64]bool // global delegate set (replicated)
}

func newDelegation(world, rank int, numVertices uint64) delegation {
	return delegation{
		world:     world,
		rank:      rank,
		degrees:   make([]uint64, graph.LocalCount(numVertices, world, rank)),
		delegates: make(map[uint64]bool),
	}
}

// handle applies a msgDegree or msgDelegate message whose type byte r
// has already consumed.
func (d *delegation) handle(typ byte, r *codec.Reader) {
	v := mustUvarint(r)
	if typ == msgDegree {
		d.degrees[localID(v, d.world, d.rank, len(d.degrees))]++
	} else {
		d.delegates[v] = true
	}
}

// detect runs the phase over this rank's edges on mb. Collective. A
// non-positive frac detects no delegates and sends nothing.
func (d *delegation) detect(mb ygm.Box, edges []graph.Edge, params graph.RMATParams, scale, edgesPerRank int, frac float64) {
	if frac <= 0 {
		return
	}
	for _, e := range edges {
		mb.Send(machine.Rank(graph.Owner(e.U, d.world)), ccEncode(msgDegree, e.U))
		mb.Send(machine.Rank(graph.Owner(e.V, d.world)), ccEncode(msgDegree, e.V))
	}
	mb.WaitEmpty()
	totalEdges := uint64(edgesPerRank) * uint64(d.world)
	threshold := graph.DelegateThreshold(params, scale, totalEdges, frac)
	for l, deg := range d.degrees {
		if deg >= threshold {
			v := graph.GlobalID(uint64(l), d.world, d.rank)
			d.delegates[v] = true
			mb.Broadcast(ccEncode(msgDelegate, v))
		}
	}
	mb.WaitEmpty()
}
