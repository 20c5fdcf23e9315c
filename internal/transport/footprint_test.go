package transport

import (
	"runtime"
	"testing"
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
