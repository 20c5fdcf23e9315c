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

// Message type bytes for the connected-components mailbox protocol.
const (
	ccMsgDegree   = 0 // [v]         degree increment for delegate detection
	ccMsgDelegate = 1 // [v]         broadcast: v is a delegate
	ccMsgEdge     = 2 // [a, b]      store edge (a owned non-delegate) at owner(a)
	ccMsgLabel    = 3 // [v, label]  min label into owned vertex v
	ccMsgImprove  = 4 // [d, label]  report delegate-copy improvement to owner(d)
	ccMsgSync     = 5 // [d, label]  broadcast: delegate d's label improved
)

// ConnectedComponentsConfig parameterizes the Section V-B experiment.
type ConnectedComponentsConfig struct {
	Mailbox ygm.Options
	// Scale: the graph has 2^Scale vertices.
	Scale int
	// EdgesPerRank is each rank's share of the RMAT stream.
	EdgesPerRank int
	// Params are the RMAT quadrant probabilities.
	Params graph.RMATParams
	// DelegateFrac sets the delegate threshold as a fraction of the
	// expected maximum degree (the paper intentionally picks thresholds
	// that yield *more* delegates than optimal to stress broadcasts).
	// Zero disables delegates entirely.
	DelegateFrac float64
	// Seed feeds the per-rank generators.
	Seed int64
	// MaxPasses bounds label-propagation passes (0 = until convergence).
	MaxPasses int
}

// ConnectedComponentsResult is one rank's outcome.
type ConnectedComponentsResult struct {
	// Labels[l] is the component label of locally owned vertex l*P+rank.
	// For delegated vertices the owner's entry is authoritative.
	Labels []uint64
	// Delegates is the number of delegated vertices (global, same on all
	// ranks).
	Delegates int
	// Passes is the number of label-propagation passes executed.
	Passes int
	// SetupEnd is this rank's virtual time when delegate detection and
	// edge distribution finished; the label-propagation passes the paper
	// times run after it.
	SetupEnd float64
	// Broadcasts is the number of Broadcast calls this rank issued.
	Broadcasts uint64
	Mailbox    ygm.Stats
}

// ccState carries the per-rank distributed state across handler
// invocations.
type ccState struct {
	p     *transport.Proc
	world int

	degrees   []uint64          // owned-vertex degrees (delegate detection)
	delegates map[uint64]bool   // global delegate set (replicated)
	delLabels map[uint64]uint64 // replicated delegate label copies

	labels []uint64 // owned non-delegate labels (indexed by local id)

	edges   []graph.Edge // stored edges: U owned non-delegate, V anything
	ddEdges []graph.Edge // delegate-delegate edges kept at the generator

	changed bool // any label improvement this pass
}

func (st *ccState) ownedLabel(v uint64) *uint64 {
	return &st.labels[graph.LocalID(v, st.world)]
}

// minInto lowers *slot to lbl, recording the change.
func (st *ccState) minInto(slot *uint64, lbl uint64) {
	if lbl < *slot {
		*slot = lbl
		st.changed = true
	}
}

// minDelegate lowers the local copy of delegate d's label.
func (st *ccState) minDelegate(d, lbl uint64) {
	if cur, ok := st.delLabels[d]; !ok || lbl < cur {
		if !ok {
			panic(fmt.Sprintf("apps: unknown delegate %d", d))
		}
		st.delLabels[d] = lbl
		st.changed = true
	}
}

// handle dispatches one mailbox message.
func (st *ccState) handle(s ygm.Sender, payload []byte) {
	r := codec.NewReader(payload)
	typ, err := r.Byte()
	if err != nil {
		panic(fmt.Sprintf("apps: corrupt cc message: %v", err))
	}
	switch typ {
	case ccMsgDegree:
		v := mustUvarint(r)
		st.degrees[graph.LocalID(v, st.world)]++
	case ccMsgDelegate:
		v := mustUvarint(r)
		st.delegates[v] = true
		st.delLabels[v] = v
	case ccMsgEdge:
		a, b := mustUvarint(r), mustUvarint(r)
		st.edges = append(st.edges, graph.Edge{U: a, V: b})
	case ccMsgLabel:
		v, lbl := mustUvarint(r), mustUvarint(r)
		st.minInto(st.ownedLabel(v), lbl)
	case ccMsgImprove, ccMsgSync:
		d, lbl := mustUvarint(r), mustUvarint(r)
		st.minDelegate(d, lbl)
	default:
		panic(fmt.Sprintf("apps: unknown cc message type %d", typ))
	}
}

func mustUvarint(r *codec.Reader) uint64 {
	v, err := r.Uvarint()
	if err != nil {
		panic(fmt.Sprintf("apps: corrupt message: %v", err))
	}
	return v
}

func ccEncode(typ byte, vals ...uint64) []byte {
	w := codec.NewWriter(1 + 10*len(vals))
	w.Byte(typ)
	for _, v := range vals {
		w.Uvarint(v)
	}
	return w.Bytes()
}

// ConnectedComponents runs the full distributed pipeline on one rank:
// generate the local edge share, detect delegates by a mailbox degree
// count, redistribute edges (colocating delegate edges), then iterate
// label-propagation passes with asynchronous-broadcast delegate
// synchronization until no label changes anywhere.
func ConnectedComponents(p *transport.Proc, cfg ConnectedComponentsConfig) (*ConnectedComponentsResult, error) {
	if cfg.Scale < 1 || cfg.EdgesPerRank < 0 {
		return nil, fmt.Errorf("apps: invalid cc config %+v", cfg)
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	world := p.WorldSize()
	numVertices := uint64(1) << uint(cfg.Scale)
	st := &ccState{
		p:         p,
		world:     world,
		degrees:   make([]uint64, graph.LocalCount(numVertices, world, int(p.Rank()))),
		delegates: make(map[uint64]bool),
		delLabels: make(map[uint64]uint64),
	}
	mb := ygm.New(p, st.handle, ygm.WithOptions(cfg.Mailbox))
	comm := collective.World(p)

	// Phase 0: generate this rank's edge share.
	gen := graph.NewRMAT(cfg.Params, cfg.Scale, cfg.Seed*7919+int64(p.Rank()))
	myEdges := graph.Collect(gen, cfg.EdgesPerRank)

	// Phase 1: delegate detection via mailbox degree counting.
	if cfg.DelegateFrac > 0 {
		for _, e := range myEdges {
			mb.Send(machine.Rank(graph.Owner(e.U, world)), ccEncode(ccMsgDegree, e.U))
			mb.Send(machine.Rank(graph.Owner(e.V, world)), ccEncode(ccMsgDegree, e.V))
		}
		mb.WaitEmpty()
		totalEdges := uint64(cfg.EdgesPerRank) * uint64(world)
		threshold := graph.DelegateThreshold(cfg.Params, cfg.Scale, totalEdges, cfg.DelegateFrac)
		for l, d := range st.degrees {
			if d >= threshold {
				v := graph.GlobalID(uint64(l), world, int(p.Rank()))
				st.delegates[v] = true
				st.delLabels[v] = v
				mb.Broadcast(ccEncode(ccMsgDelegate, v))
			}
		}
		mb.WaitEmpty()
	}

	// Phase 2: edge distribution. Non-delegate endpoints receive a copy
	// of the edge at their owner (both directions); edges with one
	// delegate endpoint are colocated with the non-delegate endpoint;
	// delegate-delegate edges stay with their generator.
	for _, e := range myEdges {
		uDel, vDel := st.delegates[e.U], st.delegates[e.V]
		switch {
		case uDel && vDel:
			st.ddEdges = append(st.ddEdges, e)
		case uDel:
			mb.Send(machine.Rank(graph.Owner(e.V, world)), ccEncode(ccMsgEdge, e.V, e.U))
		case vDel:
			mb.Send(machine.Rank(graph.Owner(e.U, world)), ccEncode(ccMsgEdge, e.U, e.V))
		default:
			mb.Send(machine.Rank(graph.Owner(e.U, world)), ccEncode(ccMsgEdge, e.U, e.V))
			mb.Send(machine.Rank(graph.Owner(e.V, world)), ccEncode(ccMsgEdge, e.V, e.U))
		}
	}
	mb.WaitEmpty()

	// Phase 3: initialize labels.
	st.labels = make([]uint64, len(st.degrees))
	for l := range st.labels {
		st.labels[l] = graph.GlobalID(uint64(l), world, int(p.Rank()))
	}

	// Phase 4: label-propagation passes.
	result := &ConnectedComponentsResult{Delegates: len(st.delegates), SetupEnd: p.Now()}
	cpm := p.Model().ComputePerMessage
	for pass := 0; cfg.MaxPasses == 0 || pass < cfg.MaxPasses; pass++ {
		st.changed = false
		passStart := make(map[uint64]uint64, len(st.delLabels))
		for d, l := range st.delLabels {
			passStart[d] = l
		}

		// Stream stored edges (a owned non-delegate, b anything).
		for _, e := range st.edges {
			p.Compute(cpm)
			a, b := e.U, e.V
			la := *st.ownedLabel(a)
			if st.delegates[b] {
				// Both directions resolve locally via the delegate copy.
				st.minDelegate(b, la)
				st.minInto(st.ownedLabel(a), st.delLabels[b])
			} else {
				mb.Send(machine.Rank(graph.Owner(b, world)), ccEncode(ccMsgLabel, b, la))
			}
		}
		// Delegate-delegate edges: purely local label mixing.
		for _, e := range st.ddEdges {
			p.Compute(cpm)
			st.minDelegate(e.U, st.delLabels[e.V])
			st.minDelegate(e.V, st.delLabels[e.U])
		}
		mb.WaitEmpty()

		// Report local delegate-copy improvements to the owners.
		for d, l := range st.delLabels {
			if l < passStart[d] && graph.Owner(d, world) != int(p.Rank()) {
				mb.Send(machine.Rank(graph.Owner(d, world)), ccEncode(ccMsgImprove, d, l))
			}
		}
		mb.WaitEmpty()

		// Owners broadcast improved delegate labels (the asynchronous
		// broadcast usage of Section V-B1).
		for d, l := range st.delLabels {
			if graph.Owner(d, world) == int(p.Rank()) && l < passStart[d] {
				mb.Broadcast(ccEncode(ccMsgSync, d, l))
			}
		}
		mb.WaitEmpty()

		result.Passes++
		flag := uint64(0)
		if st.changed {
			flag = 1
		}
		if comm.AllreduceU64([]uint64{flag}, collective.MaxU64)[0] == 0 {
			break
		}
	}

	// Copy authoritative delegate labels into the owned-label array so
	// results are uniform.
	for d, l := range st.delLabels {
		if graph.Owner(d, world) == int(p.Rank()) {
			st.labels[graph.LocalID(d, world)] = l
		}
	}
	result.Labels = st.labels
	result.Broadcasts = mb.Stats().Broadcasts
	result.Mailbox = mb.Stats()
	return result, nil
}
