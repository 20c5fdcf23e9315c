package transport

import (
	"runtime"
	"testing"

	"ygm/internal/machine"
	"ygm/internal/netsim"
)

// idleWorldBudget is the memory ceiling for building every inbox of a
// 16k-rank world that has not exchanged a single message. An inbox
// holds no per-sender state — a sender exists for it only while one of
// its packets is on the stack — so the cost is per-rank bookkeeping
// (the struct, the tag map, the heap free list): 4.6 MiB measured,
// budgeted with room for a few more words per inbox.
const idleWorldBudget = 6 << 20

// TestIdleWorldFootprint measures the allocation cost of a 16k idle
// world and fails if it regresses past the fixed budget — the guard
// that keeps "create a huge world" O(P), not O(P²).
func TestIdleWorldFootprint(t *testing.T) {
	const world = 16384
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ibs := make([]*Inbox, world)
	for i := range ibs {
		ibs[i] = NewInbox(world)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	runtime.KeepAlive(ibs)
	t.Logf("%d idle inboxes allocated %.2f MiB", world, float64(alloc)/(1<<20))
	if alloc > idleWorldBudget {
		t.Fatalf("idle %d-rank world allocated %d bytes, budget %d", world, alloc, idleWorldBudget)
	}
}

// worldSetupBudget is the per-rank allocation ceiling for building a
// world under the scheduler and running a binomial broadcast plus a
// tree barrier across it: each rank's Proc, inbox, registry, flight
// recorder and goroutine, and the few packets the tree moves. About
// 9.3 KiB per rank is measured at both sizes; per-sender or
// per-channel state would make it grow with the world.
const worldSetupBudget = 16 << 10

// TestWorldSetupFootprint keeps world setup O(P) in memory: a
// 1,024-rank and a 4,096-rank world must each allocate no more than
// worldSetupBudget per rank, so the cost per rank does not grow with P.
func TestWorldSetupFootprint(t *testing.T) {
	for _, ranks := range []int{1024, 4096} {
		cfg := NewConfig(machine.New(ranks/32, 32),
			WithModel(netsim.Quartz()),
			WithSeed(12345),
			WithWorkers(runtime.GOMAXPROCS(0)))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := Run(cfg, func(p *Proc) error {
			treeBcast(p, TagUser)
			treeBarrier(p, TagUser+1)
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perRank := (after.TotalAlloc - before.TotalAlloc) / uint64(ranks)
		t.Logf("%d ranks: %.2f MB allocated, %.1f KiB per rank",
			ranks, float64(after.TotalAlloc-before.TotalAlloc)/1e6, float64(perRank)/(1<<10))
		if perRank > worldSetupBudget {
			t.Fatalf("%d-rank world allocated %d bytes per rank, budget %d", ranks, perRank, worldSetupBudget)
		}
	}
}
