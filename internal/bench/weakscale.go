package bench

import (
	"fmt"
	"runtime"
	"time"

	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/transport"
)

// WeakScaleCores is the simulated cores-per-node shape of the
// weak-scaling sweep. 32 keeps node counts round at every point of the
// 1k→65k sweep (32 nodes → 2048 nodes).
const WeakScaleCores = 32

// WeakScalePoint is one world size of the scheduler weak-scaling sweep:
// the host-side cost of simulating a binomial broadcast plus a
// tree barrier at that rank count, with the M:N scheduler's
// own counters alongside. SimSeconds comes from the deterministic cost
// model (identical across hosts); WallSeconds and RanksPerWorker are
// what the sweep exists to watch — host memory and wall time must grow
// ~linearly in ranks while the worker pool stays fixed at GOMAXPROCS.
type WeakScalePoint struct {
	Ranks       int     `json:"ranks"`
	Nodes       int     `json:"nodes"`
	Workers     int     `json:"workers"`
	SimSeconds  float64 `json:"sim_seconds"`
	WallSeconds float64 `json:"wall_seconds"`
	Dispatches  uint64  `json:"dispatches"`
	Handoffs    uint64  `json:"handoffs"`
	HeapMiB     float64 `json:"heap_mib"`
}

// WeakScale runs the scheduler weak-scaling sweep: for each rank count
// (which must be a multiple of WeakScaleCores) the world broadcasts a
// 64-byte payload from rank 0 and runs a full barrier, all ranks
// multiplexed onto the worker pool. The goroutine-per-rank execution
// this sweep replaced topped out around 10k ranks on host memory; the
// M:N scheduler plus inboxes that hold no per-sender state is what
// makes the 65k point feasible, and this sweep is the evidence.
func WeakScale(rankCounts []int, seed int64) ([]WeakScalePoint, error) {
	points := make([]WeakScalePoint, 0, len(rankCounts))
	for _, ranks := range rankCounts {
		if ranks < WeakScaleCores || ranks%WeakScaleCores != 0 {
			return nil, fmt.Errorf("bench: weak-scaling rank count %d is not a multiple of %d cores/node",
				ranks, WeakScaleCores)
		}
		nodes := ranks / WeakScaleCores
		topo := machine.New(nodes, WeakScaleCores)

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		rep, err := transport.Run(transport.NewConfig(topo,
			transport.WithModel(netsim.Quartz()),
			transport.WithSeed(seed),
		), func(p *transport.Proc) error {
			treeBcast(p, transport.TagUser)
			treeBarrier(p, transport.TagUser+1)
			return nil
		})
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("bench: weak-scaling point %d ranks: %w", ranks, err)
		}

		m := rep.Metrics()
		points = append(points, WeakScalePoint{
			Ranks:       ranks,
			Nodes:       nodes,
			Workers:     int(m.Gauges["sched.workers"].Last),
			SimSeconds:  rep.Makespan(),
			WallSeconds: wall.Seconds(),
			Dispatches:  m.Counter("sched.dispatches"),
			Handoffs:    m.Counter("sched.handoffs"),
			HeapMiB:     float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		})
	}
	return points, nil
}

// The sweep's collective is a hand-rolled binomial tree over raw
// transport sends rather than a collective.Comm, so that it measures the
// scheduler and inbox layer, not a collective protocol: every rank does
// O(log P) work with O(1) state. (It was chosen when collective.World
// cost O(P) per rank; World is O(1) now, and the tree stays so that the
// sweep's numbers remain comparable with earlier ones.)

// treeReduce gathers one message per rank up a binomial tree to rank 0:
// every non-root rank sends exactly one packet to its parent after
// collecting one from each of its subtree children.
func treeReduce(p *transport.Proc, tag transport.Tag) {
	n := p.WorldSize()
	r := int(p.Rank())
	top := 1
	for top < n {
		top <<= 1
	}
	for m := 1; m < top; m <<= 1 {
		if r&m != 0 {
			sendByte(p, machine.Rank(r-m), tag, byte(r))
			return
		}
		if c := r | m; c < n {
			p.Recycle(p.Recv(tag))
		}
	}
}

// treeBcast broadcasts from rank 0 down the same binomial tree; every
// non-root rank receives exactly one packet under tag.
func treeBcast(p *transport.Proc, tag transport.Tag) {
	n := p.WorldSize()
	r := int(p.Rank())
	top := 1
	for top < n {
		top <<= 1
	}
	high := top
	if r != 0 {
		p.Recycle(p.Recv(tag))
		high = r & -r
	}
	for m := high >> 1; m >= 1; m >>= 1 {
		if c := r | m; c < n && c > r {
			sendByte(p, machine.Rank(c), tag, byte(r))
		}
	}
}

// sendByte sends the one-byte payload b to dst in a pooled buffer.
func sendByte(p *transport.Proc, dst machine.Rank, tag transport.Tag, b byte) {
	buf := p.AcquireBuf(1)
	buf[0] = b
	p.SendPooled(dst, tag, buf)
}

// treeBarrier is a full synchronization: reduce to the root, then
// broadcast the release. Uses tag and tag+1.
func treeBarrier(p *transport.Proc, tag transport.Tag) {
	treeReduce(p, tag)
	treeBcast(p, tag+1)
}

// WeakScaleTable renders the sweep in the same table shape the figure
// experiments use, so ygm-bench -weak-scaling prints and CSV-exports it
// through the common path.
func WeakScaleTable(points []WeakScalePoint) *Table {
	t := &Table{
		ID:    "weakscale",
		Title: "scheduler weak scaling: binomial bcast + barrier, 32 simulated cores/node",
	}
	for _, p := range points {
		t.Add(Row{
			Labels: []Label{
				{Key: "ranks", Val: fmt.Sprintf("%d", p.Ranks)},
				{Key: "nodes", Val: fmt.Sprintf("%d", p.Nodes)},
				{Key: "workers", Val: fmt.Sprintf("%d", p.Workers)},
			},
			Values: []Value{
				{Key: "sim_time", Val: p.SimSeconds, Unit: "s"},
				{Key: "wall_s", Val: p.WallSeconds, Unit: "s"},
				{Key: "dispatches", Val: float64(p.Dispatches)},
				{Key: "handoffs", Val: float64(p.Handoffs)},
				{Key: "alloc_mib", Val: p.HeapMiB, Unit: "MiB"},
			},
		})
	}
	return t
}
