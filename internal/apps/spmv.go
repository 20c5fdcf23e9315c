package apps

import (
	"fmt"
	"math"
	"sort"

	"ygm/internal/codec"
	"ygm/internal/collective"
	"ygm/internal/graph"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// Message type bytes for the SpMV mailbox protocol, after the
// delegate-detection phase's msgDegree and msgDelegate (degree over
// rows and columns).
const (
	spmvMsgEntry = msgFirstApp + iota // [i, j, bits]     store nonzero a_ij at the receiver
	spmvMsgX                          // [j, bits]        broadcast: delegated x_j value
	spmvMsgY                          // [i, bits]        accumulate into y_i at owner(i)
)

// SpMVConfig parameterizes the Section V-C experiment.
type SpMVConfig struct {
	Mailbox ygm.Options
	// Scale: the matrix is 2^Scale x 2^Scale (one column per vertex).
	Scale int
	// EdgesPerRank is each rank's share of generated nonzeros.
	EdgesPerRank int
	Params       graph.RMATParams
	// DelegateFrac sets the delegate threshold (0 disables delegates,
	// as in the Fig. 8c uniform experiment).
	DelegateFrac float64
	Seed         int64
	// Iterations is how many y = A x products to run (timing averages
	// over them); x is refreshed deterministically each iteration.
	Iterations int
}

// SpMVResult is one rank's outcome.
type SpMVResult struct {
	// Y[l] is the result entry for locally owned index l*P+rank; for
	// delegated indices the owner's entry is authoritative.
	Y []float64
	// Delegates is the global delegated-vertex count.
	Delegates int
	// SetupEnd is this rank's virtual time when matrix distribution
	// finished — the multiply phases run from here to the end, which is
	// the window the paper's Fig. 8 times.
	SetupEnd float64
	Mailbox  ygm.Stats
}

// spmvEntry is one locally stored nonzero.
type spmvEntry struct {
	row, col uint64
	val      float64
}

type spmvState struct {
	delegation

	entries []spmvEntry

	xDel map[uint64]float64 // replicated delegated x values
	yDel map[uint64]float64 // local delegated y partials
	y    []float64          // owned y entries
}

func (st *spmvState) handle(s ygm.Sender, payload []byte) {
	r := codec.NewReader(payload)
	typ, err := r.Byte()
	if err != nil {
		panic(fmt.Sprintf("apps: corrupt spmv message: %v", err))
	}
	switch typ {
	case msgDegree, msgDelegate:
		st.delegation.handle(typ, r)
	case spmvMsgEntry:
		i, j := mustUvarint(r), mustUvarint(r)
		bits := mustUvarint(r)
		st.entries = append(st.entries, spmvEntry{row: i, col: j, val: math.Float64frombits(bits)})
	case spmvMsgX:
		j := mustUvarint(r)
		st.xDel[j] = math.Float64frombits(mustUvarint(r))
	case spmvMsgY:
		i := mustUvarint(r)
		st.y[localID(i, st.world, st.rank, len(st.y))] += math.Float64frombits(mustUvarint(r))
	default:
		panic(fmt.Sprintf("apps: unknown spmv message type %d", typ))
	}
}

// XValue is the deterministic input vector used by every rank (and the
// sequential oracle): x_j depends only on j and the iteration number.
func XValue(j uint64, iter int) float64 {
	return 1 + float64((j*2654435761+uint64(iter)*97)%1000)/1000
}

// MatrixValue is the deterministic nonzero value attached to the k-th
// generated edge (u,v).
func MatrixValue(u, v uint64) float64 {
	return 1 + float64((u*31+v*17)%100)/100
}

// SpMV runs Algorithm 2 with the vertex-delegate storage of Section V-C:
// nonzeros with a delegated column are colocated with their row owner
// (local x copy), nonzeros with a delegated row accumulate into a local
// y copy combined by an allreduce at the end of each product.
func SpMV(p *transport.Proc, cfg SpMVConfig) (*SpMVResult, error) {
	if cfg.Scale < 1 || cfg.EdgesPerRank < 0 || cfg.Iterations < 1 {
		return nil, fmt.Errorf("apps: invalid spmv config %+v", cfg)
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	world := p.WorldSize()
	numVertices := uint64(1) << uint(cfg.Scale)
	localN := graph.LocalCount(numVertices, world, int(p.Rank()))
	st := &spmvState{
		delegation: newDelegation(world, int(p.Rank()), numVertices),
		xDel:       make(map[uint64]float64),
		yDel:       make(map[uint64]float64),
	}
	mb := ygm.New(p, st.handle, ygm.WithOptions(cfg.Mailbox))
	comm := collective.World(p)

	// Phase 0: generate this rank's nonzeros. Edge (u,v) becomes entry
	// a[v][u] (column = source vertex, as a CSC column partition by
	// vertex implies).
	gen := graph.NewRMAT(cfg.Params, cfg.Scale, cfg.Seed*104729+int64(p.Rank()))
	myEdges := graph.Collect(gen, cfg.EdgesPerRank)

	// Phase 1: delegate detection.
	st.detect(mb, myEdges, cfg.Params, cfg.Scale, cfg.EdgesPerRank, cfg.DelegateFrac)

	// Phase 2: entry distribution per the delegate placement rules.
	for _, e := range myEdges {
		i, j := e.V, e.U
		val := MatrixValue(e.U, e.V)
		bits := math.Float64bits(val)
		jDel, iDel := st.delegates[j], st.delegates[i]
		var store machine.Rank
		switch {
		case jDel && iDel:
			store = p.Rank() // fully local: x and y copies both exist
		case jDel:
			store = machine.Rank(graph.Owner(i, world)) // colocate with row owner
		default:
			store = machine.Rank(graph.Owner(j, world)) // CSC by column
		}
		mb.Send(store, ccEncode(spmvMsgEntry, i, j, bits))
	}
	mb.WaitEmpty()

	// Sorted delegate list shared by all ranks (same set everywhere).
	delList := make([]uint64, 0, len(st.delegates))
	for d := range st.delegates {
		delList = append(delList, d)
	}
	sort.Slice(delList, func(a, b int) bool { return delList[a] < delList[b] })

	result := &SpMVResult{Delegates: len(delList), SetupEnd: p.Now()}
	cpm := p.Model().ComputePerMessage

	for iter := 0; iter < cfg.Iterations; iter++ {
		// Refresh x: owned entries are computed locally; delegated x
		// values are broadcast by their owners (every core gets a copy).
		for _, d := range delList {
			if graph.Owner(d, world) == int(p.Rank()) {
				mb.Broadcast(ccEncode(spmvMsgX, d, math.Float64bits(XValue(d, iter))))
			}
			st.xDel[d] = XValue(d, iter) // owners and receivers agree
		}
		st.y = make([]float64, localN)
		for d := range st.yDel {
			delete(st.yDel, d)
		}
		if len(delList) > 0 {
			mb.WaitEmpty() // delegated x copies must land before the multiply
		}

		// Multiply: one message per nonzero whose row is remote and not
		// delegated; delegated rows/columns stay local.
		for _, en := range st.entries {
			p.Compute(cpm)
			var xj float64
			if st.delegates[en.col] {
				xj = st.xDel[en.col]
			} else if graph.Owner(en.col, world) == int(p.Rank()) {
				xj = XValue(en.col, iter)
			} else {
				panic(fmt.Sprintf("apps: rank %d stored entry with unowned x_%d", p.Rank(), en.col))
			}
			prod := en.val * xj
			switch {
			case st.delegates[en.row]:
				st.yDel[en.row] += prod
			case graph.Owner(en.row, world) == int(p.Rank()):
				st.y[graph.LocalID(en.row, world)] += prod
			default:
				mb.Send(machine.Rank(graph.Owner(en.row, world)),
					ccEncode(spmvMsgY, en.row, math.Float64bits(prod)))
			}
		}
		mb.WaitEmpty()

		// Combine delegated y entries with an allreduce (Section V-C).
		if len(delList) > 0 {
			partial := make([]float64, len(delList))
			for k, d := range delList {
				partial[k] = st.yDel[d]
			}
			total := comm.AllreduceF64(partial, collective.SumF64)
			for k, d := range delList {
				if graph.Owner(d, world) == int(p.Rank()) {
					st.y[graph.LocalID(d, world)] = total[k]
				}
			}
		}
	}
	result.Y = st.y
	result.Mailbox = mb.Stats()
	return result, nil
}
