// Package combblas is the synchronous comparator of Fig. 8: a
// CombBLAS-style sparse matrix–dense vector product over a 2D
// block-partitioned matrix, built on bulk-synchronous collectives. The
// real CombBLAS (Buluç & Gilbert) is far richer; what the paper's
// comparison exercises — and what this package reproduces — is its
// communication structure: a square process grid, x broadcast down grid
// columns, local block multiply, and y reduced across grid rows, every
// phase coupling all participants to the slowest one.
package combblas

import (
	"fmt"
	"math"

	"ygm/internal/codec"
	"ygm/internal/collective"
	"ygm/internal/graph"
	"ygm/internal/machine"
	"ygm/internal/spmat"
	"ygm/internal/transport"
)

// Config parameterizes a 2D SpMV run. The world size must be a perfect
// square (CombBLAS's process-grid requirement; the benchmarks pick node
// counts that satisfy it).
type Config struct {
	// Scale: the matrix is 2^Scale x 2^Scale.
	Scale        int
	EdgesPerRank int
	Params       graph.RMATParams
	Seed         int64
	Iterations   int
	// XValue supplies x_j for iteration iter; defaults to apps.XValue's
	// formula if nil (duplicated here to avoid an import cycle).
	XValue func(j uint64, iter int) float64
	// MatrixValue supplies the nonzero value for generated edge (u,v).
	MatrixValue func(u, v uint64) float64
}

// Result is one rank's outcome.
type Result struct {
	// SetupEnd is this rank's virtual time when the 2D entry
	// distribution finished; the multiply iterations run after it.
	SetupEnd float64
	// Y holds this rank's block of the result when the rank is on the
	// grid diagonal (block r of y for diagonal rank (r,r)); nil
	// elsewhere.
	Y []float64
	// YLo is the global index of Y[0].
	YLo uint64
	// NNZ is the local block's stored nonzero count.
	NNZ int
}

// SpMV runs the 2D bulk-synchronous product on one rank.
//
// Matrix distribution: each rank generates its share of edges and routes
// entry (i,j) to BlockOwner(i,j) with a synchronous all-to-all. The
// input vector's block c lives on diagonal rank (c,c); each iteration it
// is broadcast down grid column c, blocks multiply locally, and partial
// y vectors are reduced across grid rows to the diagonal.
func SpMV(p *transport.Proc, cfg Config) (*Result, error) {
	if cfg.Scale < 1 || cfg.EdgesPerRank < 0 || cfg.Iterations < 1 {
		return nil, fmt.Errorf("combblas: invalid config %+v", cfg)
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	xValue := cfg.XValue
	if xValue == nil {
		xValue = func(j uint64, iter int) float64 {
			return 1 + float64((j*2654435761+uint64(iter)*97)%1000)/1000
		}
	}
	matValue := cfg.MatrixValue
	if matValue == nil {
		matValue = func(u, v uint64) float64 { return 1 + float64((u*31+v*17)%100)/100 }
	}

	world := p.WorldSize()
	grid, err := spmat.NewGrid(world)
	if err != nil {
		return nil, err
	}
	n := uint64(1) << uint(cfg.Scale)
	me := int(p.Rank())
	myRow, myCol := grid.RowOf(me), grid.ColOf(me)

	worldComm := collective.World(p)

	// Row and column communicators.
	rowRanks := make([]machine.Rank, grid.R)
	colRanks := make([]machine.Rank, grid.R)
	for k := 0; k < grid.R; k++ {
		rowRanks[k] = machine.Rank(grid.RankAt(myRow, k))
		colRanks[k] = machine.Rank(grid.RankAt(k, myCol))
	}
	rowComm, err := collective.New(p, rowRanks)
	if err != nil {
		return nil, err
	}
	colComm, err := collective.New(p, colRanks)
	if err != nil {
		return nil, err
	}

	// Distribute entries to block owners with a synchronous all-to-all.
	gen := graph.NewRMAT(cfg.Params, cfg.Scale, cfg.Seed*104729+int64(p.Rank()))
	outbound := make([]*codec.Writer, world)
	for k := range outbound {
		outbound[k] = &codec.Writer{}
	}
	for k := 0; k < cfg.EdgesPerRank; k++ {
		e := gen.Next()
		i, j := e.V, e.U // same orientation as the YGM SpMV
		w := outbound[grid.BlockOwner(i, j, n)]
		w.Uvarint(i)
		w.Uvarint(j)
		w.Uvarint(math.Float64bits(matValue(e.U, e.V)))
	}
	payloads := make([][]byte, world)
	for k, w := range outbound {
		payloads[k] = w.Bytes()
	}
	rowLo, rowHi := grid.BlockRange(myRow, n)
	colLo, colHi := grid.BlockRange(myCol, n)
	entries := &blockSink{rowLo: rowLo, rowHi: rowHi, colLo: colLo, colHi: colHi}
	worldComm.AlltoallvPooled(payloads, make([]*transport.Packet, world), entries)
	if entries.err != nil {
		return nil, entries.err
	}
	block, err := spmat.NewCSC(int(colHi-colLo), entries.triplets)
	if err != nil {
		return nil, err
	}

	cpm := p.Model().ComputePerMessage
	res := &Result{YLo: rowLo, NNZ: block.NNZ(), SetupEnd: p.Now()}
	for iter := 0; iter < cfg.Iterations; iter++ {
		// Step 1: the diagonal rank of this grid column materializes its
		// x block and broadcasts it down the column.
		var xSeg []float64
		if myRow == myCol {
			xSeg = make([]float64, colHi-colLo)
			for k := range xSeg {
				xSeg[k] = xValue(colLo+uint64(k), iter)
			}
		}
		var xBlob []byte
		if xSeg != nil {
			w := codec.NewWriter(8*len(xSeg) + 2)
			w.Float64s(xSeg)
			xBlob = w.Bytes()
		}
		xBlob = colComm.Bcast(myCol, xBlob) // diagonal (myCol,myCol) is index myCol in the column
		xSeg, err = codec.NewReader(xBlob).Float64s()
		if err != nil {
			return nil, fmt.Errorf("combblas: corrupt x broadcast: %v", err)
		}

		// Step 2: local block multiply.
		partial := make([]float64, rowHi-rowLo)
		for c := 0; c < block.NumCols(); c++ {
			xc := xSeg[c]
			block.ForEachInCol(c, func(row uint64, val float64) {
				partial[row] += val * xc
			})
			p.Compute(float64(block.ColNNZ(c)) * cpm)
		}

		// Step 3: reduce partials across the grid row to the diagonal.
		total := rowComm.ReduceF64(myRow, partial, collective.SumF64) // diagonal (myRow,myRow) is index myRow in the row
		if myRow == myCol {
			res.Y = total
		}
	}
	return res, nil
}

// blockSink decodes the entry streams of the initial all-to-all into
// this rank's block, as triplets relative to the block's corner.
type blockSink struct {
	rowLo, rowHi, colLo, colHi uint64
	triplets                   []spmat.Triplet
	err                        error
}

func (s *blockSink) VisitBlob(_ int, blob []byte) {
	r := codec.NewReader(blob)
	for s.err == nil && r.Remaining() > 0 {
		i, err1 := r.Uvarint()
		j, err2 := r.Uvarint()
		bits, err3 := r.Uvarint()
		switch {
		case err1 != nil || err2 != nil || err3 != nil:
			s.err = fmt.Errorf("combblas: corrupt entry stream")
		case i < s.rowLo || i >= s.rowHi || j < s.colLo || j >= s.colHi:
			s.err = fmt.Errorf("combblas: entry (%d,%d) outside block [%d,%d)x[%d,%d)",
				i, j, s.rowLo, s.rowHi, s.colLo, s.colHi)
		default:
			s.triplets = append(s.triplets, spmat.Triplet{
				Row: i - s.rowLo,
				Col: j - s.colLo,
				Val: math.Float64frombits(bits),
			})
		}
	}
}
