// Package apps implements the distributed applications of the paper's
// evaluation on top of the YGM mailbox: degree counting (Algorithm 1),
// connected components via label propagation with vertex delegates and
// asynchronous broadcast synchronization (Section V-B), sparse
// matrix–dense vector multiplication with delegates (Algorithm 2), plus
// a Graph500-style BFS and chaotic-relaxation SSSP that exercise the same
// mailbox patterns the paper's introduction motivates.
package apps

import (
	"fmt"

	"ygm/internal/codec"
	"ygm/internal/graph"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// DegreeCountConfig parameterizes Algorithm 1.
type DegreeCountConfig struct {
	// Mailbox carries the routing scheme and capacity under test.
	Mailbox ygm.Options
	// NumVertices is the global vertex count; vertices are assigned to
	// ranks round-robin.
	NumVertices uint64
	// EdgesPerRank is how many edges each rank generates.
	EdgesPerRank int
	// BatchSize bounds how many edges are generated before waiting for
	// quiescence, isolating counting from generation as the paper does.
	// Zero means one batch.
	BatchSize int
	// NewGen constructs the rank-local edge generator (seeded per rank).
	NewGen func(p *transport.Proc) graph.Generator
	// JitterRounds/JitterPerRound, when positive, split edge generation
	// into JitterRounds rounds, each preceded by a uniformly random
	// amount of compute in [0, JitterPerRound) seconds — the rotating
	// load imbalance that motivates the asynchronous design: a
	// bulk-synchronous exchange pays the sum over rounds of the slowest
	// rank's jitter, the mailbox only the slowest rank's own total.
	// Jitter rounds are independent of BatchSize (the WaitEmpty cadence).
	JitterRounds   int
	JitterPerRound float64
}

// DegreeCountResult is one rank's outcome.
type DegreeCountResult struct {
	// Degrees[l] is the degree of the l-th locally owned vertex
	// (global id l*P + rank).
	Degrees []uint64
	// Mailbox is the final mailbox counter set.
	Mailbox ygm.Stats
}

// DegreeCount runs Algorithm 1 on one rank: stream the local share of the
// edge list, sending each endpoint to its owner, which increments a
// counter in the receive callback.
func DegreeCount(p *transport.Proc, cfg DegreeCountConfig) (*DegreeCountResult, error) {
	if cfg.NumVertices == 0 || cfg.EdgesPerRank < 0 || cfg.NewGen == nil {
		return nil, fmt.Errorf("apps: invalid degree-count config %+v", cfg)
	}
	world := p.WorldSize()
	degrees := make([]uint64, graph.LocalCount(cfg.NumVertices, world, int(p.Rank())))

	mb := ygm.New(p, func(s ygm.Sender, payload []byte) {
		degrees[graph.LocalID(degreeVertex(payload), world)]++
	}, ygm.WithOptions(cfg.Mailbox))

	gen := cfg.NewGen(p)
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = cfg.EdgesPerRank
	}
	jitterChunk := 0
	if cfg.JitterRounds > 0 && cfg.JitterPerRound > 0 {
		jitterChunk = cfg.EdgesPerRank / cfg.JitterRounds
		if jitterChunk == 0 {
			jitterChunk = 1
		}
	}
	send := func(v uint64) {
		w := codec.NewWriter(10)
		w.Uvarint(v)
		mb.Send(machine.Rank(graph.Owner(v, world)), w.Bytes())
	}
	for i := 0; i < cfg.EdgesPerRank; i++ {
		if jitterChunk > 0 && i%jitterChunk == 0 {
			p.Compute(p.Rng().Float64() * cfg.JitterPerRound)
		}
		e := gen.Next()
		send(e.U)
		send(e.V)
		if (i+1)%batch == 0 {
			mb.WaitEmpty()
		}
	}
	// Terminal quiescence (Algorithm 1 line 13) unless the last batch
	// boundary already provided it.
	if cfg.EdgesPerRank == 0 || cfg.EdgesPerRank%batch != 0 {
		mb.WaitEmpty()
	}
	return &DegreeCountResult{Degrees: degrees, Mailbox: mb.Stats()}, nil
}

// degreeVertex decodes a degree message: the vertex whose count it adds.
func degreeVertex(payload []byte) uint64 {
	v, err := codec.NewReader(payload).Uvarint()
	if err != nil {
		panic(fmt.Sprintf("apps: corrupt degree message: %v", err))
	}
	return v
}
