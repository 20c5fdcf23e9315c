package apps

import (
	"fmt"

	"ygm/internal/codec"
	"ygm/internal/collective"
	"ygm/internal/graph"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// Message type bytes for the SSSP mailbox protocol.
const (
	ssspMsgEdge  = 0 // [u, v, w] store weighted arc u -> v at owner(u)
	ssspMsgRelax = 1 // [v, dist]  tentative distance for v
)

// SSSPConfig parameterizes single-source shortest paths — the second
// Graph500 kernel named in Section I's account of the Sierra submission.
// The implementation is chaotic relaxation: every improved tentative
// distance immediately spawns relaxations of the vertex's out-arcs from
// inside the receive callback, and the run ends when the mailbox's
// termination detection finds global quiescence. No level barriers, no
// priority queue coordination — the purest data-dependent messaging
// pattern the mailbox supports.
type SSSPConfig struct {
	Mailbox      ygm.Options
	Scale        int
	EdgesPerRank int
	Params       graph.RMATParams
	Seed         int64
	Root         uint64
	// MaxWeight bounds the deterministic integer arc weights (>= 1).
	MaxWeight uint64
}

// SSSPResult is one rank's outcome.
type SSSPResult struct {
	// Dist[l] is the shortest distance to owned vertex l*P+rank, or
	// Unreached.
	Dist []uint64
	// Relaxations counts handler invocations that improved a distance.
	Relaxations uint64
	// Visited is the global reached-vertex count.
	Visited uint64
	Mailbox ygm.Stats
}

// ArcWeight is the deterministic weight of arc (u,v).
func ArcWeight(u, v, maxWeight uint64) uint64 {
	return 1 + (u*2654435761+v*40503)%maxWeight
}

type ssspState struct {
	world int
	adj   map[uint64][]graph.Edge // owned u -> arcs (V = neighbor, weight cached separately)
	wts   map[uint64][]uint64
	dist  []uint64
	relax uint64
}

func (st *ssspState) handle(s ygm.Sender, payload []byte) {
	r := codec.NewReader(payload)
	typ, err := r.Byte()
	if err != nil {
		panic(fmt.Sprintf("apps: corrupt sssp message: %v", err))
	}
	switch typ {
	case ssspMsgEdge:
		u, v, w := mustUvarint(r), mustUvarint(r), mustUvarint(r)
		st.adj[u] = append(st.adj[u], graph.Edge{U: u, V: v})
		st.wts[u] = append(st.wts[u], w)
	case ssspMsgRelax:
		v, d := mustUvarint(r), mustUvarint(r)
		l := graph.LocalID(v, st.world)
		if d < st.dist[l] {
			st.dist[l] = d
			st.relax++
			// Chaotic relaxation: forward improvements immediately from
			// inside the callback.
			for i, arc := range st.adj[v] {
				s.Send(machine.Rank(graph.Owner(arc.V, st.world)),
					ccEncode(ssspMsgRelax, arc.V, d+st.wts[v][i]))
			}
		}
	default:
		panic(fmt.Sprintf("apps: unknown sssp message type %d", typ))
	}
}

// SSSP runs chaotic-relaxation single-source shortest paths on one rank.
func SSSP(p *transport.Proc, cfg SSSPConfig) (*SSSPResult, error) {
	if cfg.Scale < 1 || cfg.EdgesPerRank < 0 {
		return nil, fmt.Errorf("apps: invalid sssp config %+v", cfg)
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxWeight == 0 {
		cfg.MaxWeight = 16
	}
	world := p.WorldSize()
	numVertices := uint64(1) << uint(cfg.Scale)
	if cfg.Root >= numVertices {
		return nil, fmt.Errorf("apps: sssp root %d outside graph", cfg.Root)
	}
	st := &ssspState{
		world: world,
		adj:   make(map[uint64][]graph.Edge),
		wts:   make(map[uint64][]uint64),
		dist:  make([]uint64, graph.LocalCount(numVertices, world, int(p.Rank()))),
	}
	for l := range st.dist {
		st.dist[l] = Unreached
	}
	mb := ygm.New(p, st.handle, ygm.WithOptions(cfg.Mailbox))
	comm := collective.World(p)

	// Build the weighted adjacency (undirected: both arc directions).
	gen := graph.NewRMAT(cfg.Params, cfg.Scale, cfg.Seed*32452843+int64(p.Rank()))
	for i := 0; i < cfg.EdgesPerRank; i++ {
		e := gen.Next()
		w := ArcWeight(e.U, e.V, cfg.MaxWeight)
		mb.Send(machine.Rank(graph.Owner(e.U, world)), ccEncode(ssspMsgEdge, e.U, e.V, w))
		mb.Send(machine.Rank(graph.Owner(e.V, world)), ccEncode(ssspMsgEdge, e.V, e.U, w))
	}
	mb.WaitEmpty()

	// Seed the root and let relaxation cascade until global quiescence.
	if graph.Owner(cfg.Root, world) == int(p.Rank()) {
		mb.Send(p.Rank(), ccEncode(ssspMsgRelax, cfg.Root, 0))
	}
	mb.WaitEmpty()

	var visited uint64
	for _, d := range st.dist {
		if d != Unreached {
			visited++
		}
	}
	res := &SSSPResult{
		Dist:        st.dist,
		Relaxations: st.relax,
		Visited:     comm.AllreduceU64([]uint64{visited}, collective.SumU64)[0],
		Mailbox:     mb.Stats(),
	}
	return res, nil
}
