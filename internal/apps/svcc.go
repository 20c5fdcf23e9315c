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

// Message type bytes for the Shiloach-Vishkin protocol.
const (
	svMsgEdge  = 0 // [u, v]        store edge copy at owner(u)
	svMsgHook  = 1 // [v, label]    min label into f[v]
	svMsgQuery = 2 // [w, v]        ask owner(w) for f[w], reply to v
	svMsgReply = 3 // [v, label]    pointer-jump answer: f[v] = min(f[v], f[f[v]])
)

// SVConfig parameterizes the Shiloach-Vishkin-style connected components
// the paper points to as the asymptotically better alternative to its
// benchmark label propagation ("a Shiloach-Vishkin implementation could
// be implemented using YGM", Section V-B). Each round combines hooking
// (neighbor label mins) with one pointer-jumping shortcut implemented as
// a query/reply message pair through the mailbox — the receive callback
// of a query spawns the reply, the data-dependent pattern YGM exists
// for. Rounds are O(log |V|)-ish instead of O(diam(G)).
type SVConfig struct {
	Mailbox      ygm.Options
	Scale        int
	EdgesPerRank int
	Params       graph.RMATParams
	Seed         int64
	// MaxRounds bounds the iteration count (0 = until convergence).
	MaxRounds int
	// Edges, when non-nil, overrides generation: each rank contributes
	// the slice (used by tests to build adversarial topologies like long
	// paths).
	Edges func(p *transport.Proc) []graph.Edge
}

// SVResult is one rank's outcome.
type SVResult struct {
	// Labels[l] is the component label (the component's minimum vertex
	// id) of owned vertex l*P+rank.
	Labels []uint64
	// Rounds is the number of hook+shortcut rounds executed.
	Rounds  int
	Mailbox ygm.Stats
}

type svState struct {
	world   int
	f       []uint64 // owned vertex labels (parents)
	edges   []graph.Edge
	changed bool
}

func (st *svState) ownedF(v uint64) *uint64 {
	return &st.f[graph.LocalID(v, st.world)]
}

func (st *svState) minF(v, label uint64) {
	slot := st.ownedF(v)
	if label < *slot {
		*slot = label
		st.changed = true
	}
}

func (st *svState) handle(s ygm.Sender, payload []byte) {
	r := codec.NewReader(payload)
	typ, err := r.Byte()
	if err != nil {
		panic(fmt.Sprintf("apps: corrupt sv message: %v", err))
	}
	switch typ {
	case svMsgEdge:
		u, v := mustUvarint(r), mustUvarint(r)
		st.edges = append(st.edges, graph.Edge{U: u, V: v})
	case svMsgHook, svMsgReply:
		v, label := mustUvarint(r), mustUvarint(r)
		st.minF(v, label)
	case svMsgQuery:
		w, v := mustUvarint(r), mustUvarint(r)
		// Reply with f[w] so the asker can jump to its grandparent.
		s.Send(machine.Rank(graph.Owner(v, st.world)),
			ccEncode(svMsgReply, v, *st.ownedF(w)))
	default:
		panic(fmt.Sprintf("apps: unknown sv message type %d", typ))
	}
}

// ShiloachVishkinCC runs hook-and-shortcut connected components on one
// rank. All ranks must use an identical configuration.
func ShiloachVishkinCC(p *transport.Proc, cfg SVConfig) (*SVResult, error) {
	if cfg.Scale < 1 || cfg.EdgesPerRank < 0 {
		return nil, fmt.Errorf("apps: invalid sv config %+v", cfg)
	}
	if cfg.Edges == nil {
		if err := cfg.Params.Validate(); err != nil {
			return nil, err
		}
	}
	world := p.WorldSize()
	numVertices := uint64(1) << uint(cfg.Scale)
	st := &svState{
		world: world,
		f:     make([]uint64, graph.LocalCount(numVertices, world, int(p.Rank()))),
	}
	for l := range st.f {
		st.f[l] = graph.GlobalID(uint64(l), world, int(p.Rank()))
	}
	mb := ygm.New(p, st.handle, ygm.WithOptions(cfg.Mailbox))
	comm := collective.World(p)

	// Distribute edges to both endpoint owners.
	var myEdges []graph.Edge
	if cfg.Edges != nil {
		myEdges = cfg.Edges(p)
	} else {
		gen := graph.NewRMAT(cfg.Params, cfg.Scale, cfg.Seed*49979687+int64(p.Rank()))
		myEdges = graph.Collect(gen, cfg.EdgesPerRank)
	}
	for _, e := range myEdges {
		if e.U >= numVertices || e.V >= numVertices {
			return nil, fmt.Errorf("apps: sv edge %v outside 2^%d vertices", e, cfg.Scale)
		}
		mb.Send(machine.Rank(graph.Owner(e.U, world)), ccEncode(svMsgEdge, e.U, e.V))
		mb.Send(machine.Rank(graph.Owner(e.V, world)), ccEncode(svMsgEdge, e.V, e.U))
	}
	mb.WaitEmpty()

	res := &SVResult{}
	cpm := p.Model().ComputePerMessage
	for round := 0; cfg.MaxRounds == 0 || round < cfg.MaxRounds; round++ {
		st.changed = false

		// Hooking: push this side's label across every stored edge.
		for _, e := range st.edges {
			p.Compute(cpm)
			mb.Send(machine.Rank(graph.Owner(e.V, world)),
				ccEncode(svMsgHook, e.V, *st.ownedF(e.U)))
		}
		mb.WaitEmpty()

		// Shortcut: one pointer jump per owned vertex, f[v] <- f[f[v]],
		// via query/reply through the owners.
		for l, fv := range st.f {
			v := graph.GlobalID(uint64(l), world, int(p.Rank()))
			if fv == v {
				continue
			}
			p.Compute(cpm)
			mb.Send(machine.Rank(graph.Owner(fv, world)), ccEncode(svMsgQuery, fv, v))
		}
		mb.WaitEmpty()

		res.Rounds++
		flag := uint64(0)
		if st.changed {
			flag = 1
		}
		if comm.AllreduceU64([]uint64{flag}, collective.MaxU64)[0] == 0 {
			break
		}
	}
	res.Labels = st.f
	res.Mailbox = mb.Stats()
	return res, nil
}
