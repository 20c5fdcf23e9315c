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

// Message type bytes for the BFS mailbox protocol.
const (
	bfsMsgEdge  = 0 // [u, v] store directed adjacency u -> v at owner(u)
	bfsMsgVisit = 1 // [v, dist] visit v at distance dist
)

// BFSConfig parameterizes the Graph500-style breadth-first search that
// Section I cites as YGM's flagship workload (the Sierra submission).
type BFSConfig struct {
	Mailbox ygm.Options
	// Scale: the graph has 2^Scale vertices.
	Scale        int
	EdgesPerRank int
	Params       graph.RMATParams
	Seed         int64
	// Root is the search root vertex.
	Root uint64
}

// BFSResult is one rank's outcome.
type BFSResult struct {
	// Dist[l] is the BFS level of locally owned vertex l*P+rank, or
	// Unreached.
	Dist []uint64
	// Levels is the number of frontier expansions performed.
	Levels int
	// Visited is the global number of reached vertices.
	Visited uint64
	Mailbox ygm.Stats
}

// Unreached marks vertices the search never found.
const Unreached = ^uint64(0)

type bfsState struct {
	world int
	adj   map[uint64][]uint64 // owned vertex -> neighbors
	dist  []uint64
	next  []uint64 // owned vertices discovered this level
}

func (st *bfsState) handle(s ygm.Sender, payload []byte) {
	r := codec.NewReader(payload)
	typ, err := r.Byte()
	if err != nil {
		panic(fmt.Sprintf("apps: corrupt bfs message: %v", err))
	}
	switch typ {
	case bfsMsgEdge:
		u, v := mustUvarint(r), mustUvarint(r)
		st.adj[u] = append(st.adj[u], v)
	case bfsMsgVisit:
		v, d := mustUvarint(r), mustUvarint(r)
		l := graph.LocalID(v, st.world)
		if st.dist[l] == Unreached {
			st.dist[l] = d
			st.next = append(st.next, v)
		}
	default:
		panic(fmt.Sprintf("apps: unknown bfs message type %d", typ))
	}
}

// BFS runs a level-synchronous breadth-first search: each level expands
// the frontier through the mailbox (visits are data-dependent messages
// spawned by prior visits' owners) and levels are separated by
// WaitEmpty plus a frontier-count allreduce.
func BFS(p *transport.Proc, cfg BFSConfig) (*BFSResult, error) {
	if cfg.Scale < 1 || cfg.EdgesPerRank < 0 {
		return nil, fmt.Errorf("apps: invalid bfs config %+v", cfg)
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	world := p.WorldSize()
	numVertices := uint64(1) << uint(cfg.Scale)
	if cfg.Root >= numVertices {
		return nil, fmt.Errorf("apps: bfs root %d outside graph", cfg.Root)
	}
	st := &bfsState{
		world: world,
		adj:   make(map[uint64][]uint64),
		dist:  make([]uint64, graph.LocalCount(numVertices, world, int(p.Rank()))),
	}
	for l := range st.dist {
		st.dist[l] = Unreached
	}
	mb := ygm.New(p, st.handle, ygm.WithOptions(cfg.Mailbox))
	comm := collective.World(p)

	// Build the distributed adjacency (undirected: both directions).
	gen := graph.NewRMAT(cfg.Params, cfg.Scale, cfg.Seed*15485863+int64(p.Rank()))
	for i := 0; i < cfg.EdgesPerRank; i++ {
		e := gen.Next()
		mb.Send(machine.Rank(graph.Owner(e.U, world)), ccEncode(bfsMsgEdge, e.U, e.V))
		mb.Send(machine.Rank(graph.Owner(e.V, world)), ccEncode(bfsMsgEdge, e.V, e.U))
	}
	mb.WaitEmpty()

	// Seed the root.
	if graph.Owner(cfg.Root, world) == int(p.Rank()) {
		st.dist[graph.LocalID(cfg.Root, world)] = 0
		st.next = append(st.next, cfg.Root)
	}

	result := &BFSResult{}
	cpm := p.Model().ComputePerMessage
	for level := uint64(0); ; level++ {
		frontier := st.next
		st.next = nil
		for _, u := range frontier {
			for _, v := range st.adj[u] {
				p.Compute(cpm)
				mb.Send(machine.Rank(graph.Owner(v, world)), ccEncode(bfsMsgVisit, v, level+1))
			}
		}
		mb.WaitEmpty()
		result.Levels++
		grew := comm.AllreduceU64([]uint64{uint64(len(st.next))}, collective.SumU64)[0]
		if grew == 0 {
			break
		}
	}

	var visited uint64
	for _, d := range st.dist {
		if d != Unreached {
			visited++
		}
	}
	result.Visited = comm.AllreduceU64([]uint64{visited}, collective.SumU64)[0]
	result.Dist = st.dist
	result.Mailbox = mb.Stats()
	return result, nil
}
