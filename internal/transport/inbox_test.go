package transport

import (
	"math/rand"
	"sync"
	"testing"

	"ygm/internal/machine"
)

func TestInboxPushPopOrder(t *testing.T) {
	ib := NewInbox(1)
	// Push arrivals out of order; pops must come back sorted.
	for _, a := range []float64{5, 1, 3, 2, 4} {
		ib.Push(&Packet{Tag: TagUser, Arrive: a})
	}
	prev := 0.0
	for i := 0; i < 5; i++ {
		p := ib.TryPop(TagUser)
		if p == nil {
			t.Fatal("missing packet")
		}
		if p.Arrive < prev {
			t.Fatalf("out of order: %g after %g", p.Arrive, prev)
		}
		prev = p.Arrive
	}
	if ib.TryPop(TagUser) != nil {
		t.Fatal("empty inbox should pop nil")
	}
}

func TestInboxEqualArrivalIsFIFO(t *testing.T) {
	ib := NewInbox(1)
	for i := 0; i < 10; i++ {
		ib.Push(&Packet{Tag: TagUser, Arrive: 1.0, Payload: []byte{byte(i)}})
	}
	for i := 0; i < 10; i++ {
		p := ib.TryPop(TagUser)
		if int(p.Payload[0]) != i {
			t.Fatalf("tie-break not FIFO: got %d at position %d", p.Payload[0], i)
		}
	}
}

func TestInboxTagIsolation(t *testing.T) {
	ib := NewInbox(1)
	ib.Push(&Packet{Tag: TagUser, Arrive: 1})
	ib.Push(&Packet{Tag: TagData, Arrive: 2})
	if queued(ib, TagUser) != 1 || queued(ib, TagData) != 1 || ib.Len() != 2 {
		t.Fatal("tag bookkeeping wrong")
	}
	if p := ib.TryPop(TagData); p == nil || p.Arrive != 2 {
		t.Fatalf("TryPop(TagData) = %v", p)
	}
	if queued(ib, TagUser) != 1 {
		t.Fatal("popping one tag must not disturb another")
	}
	if queued(ib, Tag(999)) != 0 {
		t.Fatal("unknown tag should be empty")
	}
}

// queued counts the packets merged under tag.
func queued(ib *Inbox, tag Tag) int {
	ib.absorb()
	if q := ib.heapFor(tag); q != nil {
		return len(*q)
	}
	return 0
}

func TestInboxTryPopArrived(t *testing.T) {
	ib := NewInbox(1)
	ib.Push(&Packet{Tag: TagUser, Arrive: 10})
	if ib.TryPopArrived(TagUser, 5) != nil {
		t.Fatal("packet in virtual flight must not be polled")
	}
	if p := ib.TryPopArrived(TagUser, 10); p == nil {
		t.Fatal("packet at exactly now should be polled")
	}
}

func TestInboxWaitPopBlocks(t *testing.T) {
	ib := NewInbox(1)
	done := make(chan *Packet)
	go func() {
		ib.WaitAny(TagUser)
		done <- ib.TryPop(TagUser)
	}()
	ib.Push(&Packet{Tag: TagUser, Arrive: 7})
	if p := <-done; p.Arrive != 7 {
		t.Fatalf("wait-then-pop = %v", p)
	}
}

// TestInboxConcurrentPushers pushes from one goroutine per source (what
// every wire provides — each rank is one goroutine) with no consumer
// running, so the whole burst piles up on the stack, while
// Len/ordering/MaxDepth accounting must stay exact.
func TestInboxConcurrentPushers(t *testing.T) {
	const pushers, each = 8, 200
	ib := NewInbox(pushers)
	var wg sync.WaitGroup
	for i := 0; i < pushers; i++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(src)))
			for j := 0; j < each; j++ {
				ib.Push(&Packet{Src: machine.Rank(src), Tag: TagUser, Arrive: rng.Float64()})
			}
		}(i)
	}
	wg.Wait()
	if ib.Len() != pushers*each {
		t.Fatalf("len = %d", ib.Len())
	}
	prev := -1.0
	for i := 0; i < pushers*each; i++ {
		p := ib.TryPop(TagUser)
		if p.Arrive < prev {
			t.Fatal("pops out of order after concurrent pushes")
		}
		prev = p.Arrive
	}
	if ib.MaxDepth() != pushers*each {
		t.Fatalf("max depth = %d", ib.MaxDepth())
	}
}

// TestInboxOverflowFallback pushes a 48-packet burst on one channel
// with no consumer running: capacity is unbounded, absorb must deliver
// the burst gap-free in push order, and the drained inbox must take a
// fresh push afterwards.
func TestInboxOverflowFallback(t *testing.T) {
	const total = 48
	ib := NewInbox(1)
	for i := 0; i < total; i++ {
		ib.Push(&Packet{Tag: TagUser, Arrive: float64(i)})
	}
	if n := ib.Len(); n != total {
		t.Fatalf("Len = %d after %d pushes", n, total)
	}
	for i := 0; i < total; i++ {
		p := ib.TryPop(TagUser)
		if p == nil || p.Arrive != float64(i) {
			t.Fatalf("pop %d = %v, want arrive %d", i, p, i)
		}
	}
	ib.Push(&Packet{Tag: TagUser, Arrive: 1000})
	if n := ib.Len(); n != 1 {
		t.Fatalf("Len = %d after the post-drain push, want 1", n)
	}
	if p := ib.TryPop(TagUser); p == nil || p.Arrive != 1000 {
		t.Fatalf("post-drain pop = %v", p)
	}
}

// TestInboxOrderIgnoresInterleaving is the tie-break property DESIGN.md
// §10 proves: the pop order is a function of the traffic — each
// source's push order and the arrival stamps — and not of how the host
// interleaved the producers or where the consumer's absorb passes fell.
// Arrivals collide heavily across and within sources, so almost every
// comparison reaches the (Src, seq) tie-break.
func TestInboxOrderIgnoresInterleaving(t *testing.T) {
	const srcs, each = 5, 40
	type key struct {
		src machine.Rank
		idx byte
	}
	// traffic[s] is source s's packets in its push order.
	traffic := func() [][]*Packet {
		rng := rand.New(rand.NewSource(42))
		out := make([][]*Packet, srcs)
		for s := range out {
			for i := 0; i < each; i++ {
				out[s] = append(out[s], &Packet{
					Src: machine.Rank(s), Tag: TagUser,
					Arrive: float64(rng.Intn(4)), Payload: []byte{byte(i)},
				})
			}
		}
		return out
	}
	// run pushes the traffic with pick choosing which source goes next
	// and absorbAfter saying whether to absorb after the n-th push.
	run := func(pick func(live []int) int, absorbAfter func(n int) bool) []key {
		ib := NewInbox(srcs)
		tr := traffic()
		next := make([]int, srcs)
		live := make([]int, srcs)
		for s := range live {
			live[s] = s
		}
		for n := 1; len(live) > 0; n++ {
			li := pick(live)
			s := live[li]
			ib.Push(tr[s][next[s]])
			if next[s]++; next[s] == each {
				live = append(live[:li], live[li+1:]...)
			}
			if absorbAfter(n) {
				ib.absorb()
			}
		}
		var order []key
		for p := ib.TryPop(TagUser); p != nil; p = ib.TryPop(TagUser) {
			order = append(order, key{p.Src, p.Payload[0]})
		}
		return order
	}
	roundRobin := 0
	a := run(func(live []int) int { roundRobin++; return roundRobin % len(live) },
		func(int) bool { return false })
	rng := rand.New(rand.NewSource(7))
	b := run(func(live []int) int { return rng.Intn(len(live)) },
		func(n int) bool { return n%13 == 0 })
	// One source at a time, highest first, absorbing after every push.
	c := run(func(live []int) int { return len(live) - 1 },
		func(int) bool { return true })
	if len(a) != srcs*each {
		t.Fatalf("popped %d packets, want %d", len(a), srcs*each)
	}
	for name, got := range map[string][]key{"random": b, "sequential": c} {
		if len(got) != len(a) {
			t.Fatalf("%s interleaving popped %d packets, want %d", name, len(got), len(a))
		}
		for i := range a {
			if got[i] != a[i] {
				t.Fatalf("%s interleaving diverges at pop %d: %v, round-robin gave %v", name, i, got[i], a[i])
			}
		}
	}
}

// TestInboxPopsCarryNoLink checks that the intrusive link does not
// outlive the stack: every popped packet has a nil next — so neither
// the GC nor the packet pool is handed a chain of delivered packets —
// and a drained inbox holds nothing.
func TestInboxPopsCarryNoLink(t *testing.T) {
	const srcs, each = 4, 64
	ib := NewInbox(srcs)
	var wg sync.WaitGroup
	for s := 0; s < srcs; s++ {
		wg.Add(1)
		go func(src machine.Rank) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ib.Push(&Packet{Src: src, Tag: TagUser + Tag(i%3), Arrive: float64(i)})
			}
		}(machine.Rank(s))
	}
	wg.Wait()
	popped := 0
	check := func(p *Packet) {
		if p.next != nil {
			t.Fatalf("popped packet (src %d, arrive %g) still linked to %p", p.Src, p.Arrive, p.next)
		}
		popped++
	}
	for p := ib.TryPop(TagUser); p != nil; p = ib.TryPop(TagUser) {
		check(p)
	}
	for p := ib.TryPopArrived(TagUser+1, each); p != nil; p = ib.TryPopArrived(TagUser+1, each) {
		check(p)
	}
	for _, p := range ib.DrainInto(TagUser+2, nil) {
		check(p)
	}
	if popped != srcs*each {
		t.Fatalf("popped %d packets, want %d", popped, srcs*each)
	}
	if n := ib.Len(); n != 0 {
		t.Fatalf("drained inbox reports Len = %d", n)
	}
	if ib.head.Load() != nil {
		t.Fatal("drained inbox still holds a stack")
	}
}
