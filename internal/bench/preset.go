package bench

import (
	"fmt"

	"ygm/internal/netsim"
	"ygm/internal/transport"
)

// Preset sizes an experiment sweep. The paper ran 36-core nodes up to
// 1024 nodes with 2^18-message mailboxes and billions of edges; this
// reproduction keeps the ratios (edges per rank, mailbox size per rank
// count, N relative to C) but shrinks absolute sizes to what a single
// host simulates in reasonable time. Shapes, crossovers, and who-wins
// are preserved; absolute numbers are not comparable.
type Preset struct {
	Name string
	// Cores per simulated node (the paper's C=36).
	Cores int
	// WeakNodes / StrongNodes are the node-count sweeps.
	WeakNodes   []int
	StrongNodes []int
	// GridNodes are node counts whose worlds are perfect squares, used
	// by the CombBLAS-style comparator.
	GridNodes []int

	// MailboxCap is the mailbox size in records (paper: 2^18).
	MailboxCap int

	// Degree counting (Fig. 6).
	DegreeVerticesPerRank uint64
	DegreeEdgesPerRank    int
	DegreeBatches         int
	DegreeStrongVertices  uint64
	DegreeStrongEdges     int

	// Connected components (Fig. 7).
	CCVerticesPerRankLog int // vertices per rank = 2^this
	CCEdgesPerRank       int
	CCDelegateFrac       float64
	CCStrongScale        int
	CCStrongEdges        int

	// SpMV (Fig. 8).
	SpMVVerticesPerRankLog int
	SpMVEdgeFactor         int
	SpMVDelegateFrac       float64
	SpMVIterations         int
	SpMVStrongScale        int
	SpMVStrongEdges        int

	// Crossover study (fig8x): paper-scale per-rank volumes so that the
	// sqrt(P) dense-vector traffic of the 2D baseline overtakes YGM's
	// flat per-nonzero traffic within the sweep.
	XoverGridNodes          []int
	XoverVerticesPerRankLog int
	XoverEdgeFactor         int
	XoverMailboxCap         int

	Seed  int64
	Model netsim.Model

	// Trace, when non-nil, is attached to every world the sweep runs
	// (transport.Config.Trace). With a *transport.ChromeTracer this turns
	// a figure run into a Perfetto-loadable timeline; see ygm-bench
	// -trace.
	Trace transport.Tracer

	// Wire names the in-process transport backend every world in the
	// sweep runs on: "" or "sim" for the virtual-time simulator, "local"
	// for the real-time wire (figures then report wall seconds on real
	// hardware instead of modeled seconds). The multi-process TCP
	// backend does not fit a figure sweep — world sizes vary per cell —
	// so ygm-bench rejects -wire=tcp and points to the stream_tcp
	// workload of benchmark/run.sh.
	Wire string
}

// newWire builds a fresh single-use backend for one world of the sweep.
func (p Preset) newWire() transport.Wire {
	if p.Wire == "local" {
		return transport.LocalWire{}
	}
	return transport.SimWire{}
}

// Quick is the fast preset used by unit tests and testing.B benchmarks.
func Quick() Preset {
	return Preset{
		Name:        "quick",
		Cores:       4,
		WeakNodes:   []int{1, 2, 4, 8},
		StrongNodes: []int{1, 2, 4, 8},
		GridNodes:   []int{1, 4, 16},
		MailboxCap:  256,

		DegreeVerticesPerRank: 256,
		DegreeEdgesPerRank:    512,
		DegreeBatches:         2,
		DegreeStrongVertices:  1 << 12,
		DegreeStrongEdges:     1 << 13,

		CCVerticesPerRankLog: 6,
		CCEdgesPerRank:       384,
		CCDelegateFrac:       0.05,
		CCStrongScale:        10,
		CCStrongEdges:        1 << 12,

		SpMVVerticesPerRankLog: 6,
		SpMVEdgeFactor:         8,
		SpMVDelegateFrac:       0.05,
		SpMVIterations:         1,
		SpMVStrongScale:        10,
		SpMVStrongEdges:        1 << 13,

		XoverGridNodes:          []int{1, 4, 16},
		XoverVerticesPerRankLog: 8,
		XoverEdgeFactor:         4,
		XoverMailboxCap:         1 << 13,

		Seed:  1,
		Model: netsim.Quartz(),
	}
}

// Paper is the full sweep used by cmd/ygm-bench to regenerate the
// figures; it runs minutes, not hours, on one host CPU.
func Paper() Preset {
	return Preset{
		Name:        "paper",
		Cores:       8,
		WeakNodes:   []int{1, 2, 4, 8, 16, 32, 64},
		StrongNodes: []int{1, 2, 4, 8, 16, 32, 64},
		GridNodes:   []int{2, 8, 32}, // 16, 64, 256 ranks: perfect squares
		MailboxCap:  1024,

		DegreeVerticesPerRank: 1 << 10,
		DegreeEdgesPerRank:    1 << 11,
		DegreeBatches:         2,
		DegreeStrongVertices:  1 << 17,
		DegreeStrongEdges:     1 << 19,

		CCVerticesPerRankLog: 7,
		CCEdgesPerRank:       1 << 10,
		CCDelegateFrac:       0.02,
		CCStrongScale:        14,
		CCStrongEdges:        1 << 16,

		SpMVVerticesPerRankLog: 7,
		SpMVEdgeFactor:         8,
		SpMVDelegateFrac:       0.05,
		SpMVIterations:         1,
		SpMVStrongScale:        14,
		SpMVStrongEdges:        1 << 18,

		XoverGridNodes:          []int{2, 8, 32, 128},
		XoverVerticesPerRankLog: 11,
		XoverEdgeFactor:         4,
		XoverMailboxCap:         1 << 16,

		Seed:  1,
		Model: netsim.Quartz(),
	}
}

// PresetByName resolves "quick" or "paper".
func PresetByName(name string) (Preset, error) {
	switch name {
	case "quick":
		return Quick(), nil
	case "paper":
		return Paper(), nil
	}
	return Preset{}, fmt.Errorf("bench: unknown preset %q (have quick, paper)", name)
}

// log2 returns floor(log2(v)) for v >= 1.
func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
