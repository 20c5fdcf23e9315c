package ygm

import (
	"fmt"
	"runtime"
	"testing"

	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/transport"
)

// The steady-state allocation pins below are the contract behind the
// zero-allocation exchange hot path: once coalescing buffers have grown
// to the workload's sizes and the transport pool is stocked, the
// queue→coalesce→pack→send→deliver cycle of every mailbox variant must
// perform zero heap allocations per message. testing.AllocsPerRun
// measures *global* mallocs under GOMAXPROCS(1), so the peer rank's
// responses are inside the measured window too — both sides of the
// exchange must be allocation-free for the pin to pass.
//
// AllocsPerRun calls the function once as an internal warmup before the
// measured runs, so the peer rank must expect warmup+runs+1 operations.
const (
	allocWarmup = 64
	allocRuns   = 32
)

// skipIfYgmcheck exempts the pins from `-tags ygmcheck` builds: the
// invariant layer's checkf calls box their arguments on every Send, so
// the instrumented build legitimately allocates. The zero-alloc contract
// applies to the production build.
func skipIfYgmcheck(t *testing.T) {
	t.Helper()
	if ygmcheckEnabled {
		t.Skip("ygmcheck invariant layer allocates; pins target the production build")
	}
}

// TestLazySteadyStateZeroAlloc pins the lazy mailbox's full round trip:
// Send queues and coalesces, Flush packs into a pooled packet and sends,
// the peer drains, delivers, and answers, and the origin drains the
// answer. One node, two cores: the shortest honest ping-pong.
func TestLazySteadyStateZeroAlloc(t *testing.T) {
	skipIfYgmcheck(t)
	var failure error
	_, err := transport.Run(transport.Config{
		Topo:  machine.New(1, 2),
		Model: netsim.Quartz(),
		Seed:  7,
	}, func(p *transport.Proc) error {
		var got int
		mb := New(p, func(s Sender, payload []byte) { got++ },
			WithScheme(machine.NoRoute),
			WithExchange(LazyExchange),
			WithCapacity(1<<20)).(*Mailbox)
		payload := []byte("0123456789abcdef")
		peer := machine.Rank(1 - p.Rank())
		waitDelivery := func(target int) {
			for got < target {
				mb.drainAvailable()
				runtime.Gosched()
			}
		}
		if p.Rank() == 0 {
			pingOnce := func() {
				target := got + 1
				mb.Send(peer, payload)
				mb.Flush()
				waitDelivery(target)
			}
			for i := 0; i < allocWarmup; i++ {
				pingOnce()
			}
			if avg := testing.AllocsPerRun(allocRuns, pingOnce); avg != 0 {
				failure = fmt.Errorf("lazy round trip allocates %.1f allocs/op, want 0", avg)
			}
		} else {
			for i := 0; i < allocWarmup+allocRuns+1; i++ {
				waitDelivery(got + 1)
				mb.Send(peer, payload)
				mb.Flush()
			}
		}
		mb.WaitEmpty()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if failure != nil {
		t.Fatal(failure)
	}
}

// TestRoundSteadyStateZeroAlloc pins the round-matched variant: with
// Capacity 1, every Send triggers a full exchange round — pack, pooled
// send, matched receive, dispatch, recycle — in lockstep on both ranks.
func TestRoundSteadyStateZeroAlloc(t *testing.T) {
	skipIfYgmcheck(t)
	var failure error
	_, err := transport.Run(transport.Config{
		Topo:  machine.New(1, 2),
		Model: netsim.Quartz(),
		Seed:  7,
	}, func(p *transport.Proc) error {
		mb := New(p, func(s Sender, payload []byte) {},
			WithScheme(machine.NoRoute),
			WithExchange(RoundExchange),
			WithCapacity(1))
		payload := []byte("0123456789abcdef")
		peer := machine.Rank(1 - p.Rank())
		roundOnce := func() { mb.Send(peer, payload) }
		if p.Rank() == 0 {
			for i := 0; i < allocWarmup; i++ {
				roundOnce()
			}
			if avg := testing.AllocsPerRun(allocRuns, roundOnce); avg != 0 {
				failure = fmt.Errorf("round exchange allocates %.1f allocs/op, want 0", avg)
			}
		} else {
			for i := 0; i < allocWarmup+allocRuns+1; i++ {
				roundOnce()
			}
		}
		mb.WaitEmpty()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if failure != nil {
		t.Fatal(failure)
	}
}

// TestSyncSteadyStateZeroAlloc pins the ALLTOALLV-backed variant: Send
// encodes straight into the stage's generation buffer and Exchange ships
// it through the pooled collective, both ranks in lockstep.
func TestSyncSteadyStateZeroAlloc(t *testing.T) {
	skipIfYgmcheck(t)
	var failure error
	_, err := transport.Run(transport.Config{
		Topo:  machine.New(1, 2),
		Model: netsim.Quartz(),
		Seed:  7,
	}, func(p *transport.Proc) error {
		mb := New(p, func(s Sender, payload []byte) {},
			WithScheme(machine.NoRoute),
			WithExchange(SyncExchange)).(*SyncMailbox)
		payload := []byte("0123456789abcdef")
		peer := machine.Rank(1 - p.Rank())
		syncOnce := func() {
			mb.Send(peer, payload)
			mb.Exchange()
		}
		if p.Rank() == 0 {
			for i := 0; i < allocWarmup; i++ {
				syncOnce()
			}
			if avg := testing.AllocsPerRun(allocRuns, syncOnce); avg != 0 {
				failure = fmt.Errorf("sync exchange allocates %.1f allocs/op, want 0", avg)
			}
		} else {
			for i := 0; i < allocWarmup+allocRuns+1; i++ {
				syncOnce()
			}
		}
		mb.ExchangeUntilQuiet()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if failure != nil {
		t.Fatal(failure)
	}
}

// TestTermSteadyStateZeroAlloc pins the termination-detection path: a
// WaitEmpty on a quiet mailbox runs a whole detection generation — the
// snapshot encoded straight into a pooled buffer, sent to the butterfly
// partner, the partner's packet batched out of the inbox, filed in its
// slot, absorbed and recycled — and none of it may allocate once the
// transport pool has warmed up. The round policy's WaitEmpty parks on
// its stage tags and TagTerm between steps, and neither may that.
func TestTermSteadyStateZeroAlloc(t *testing.T) {
	skipIfYgmcheck(t)
	for _, style := range []ExchangeStyle{LazyExchange, RoundExchange} {
		var failure error
		_, err := transport.Run(transport.Config{
			Topo:  machine.New(1, 2),
			Model: netsim.Quartz(),
			Seed:  7,
		}, func(p *transport.Proc) error {
			mb := New(p, func(s Sender, payload []byte) {},
				WithScheme(machine.NoRoute),
				WithExchange(style))
			termOnce := func() { mb.WaitEmpty() }
			if p.Rank() == 0 {
				for i := 0; i < allocWarmup; i++ {
					termOnce()
				}
				if avg := testing.AllocsPerRun(allocRuns, termOnce); avg != 0 {
					failure = fmt.Errorf("%v termination detection allocates %.1f allocs/op, want 0", style, avg)
				}
			} else {
				for i := 0; i < allocWarmup+allocRuns+1; i++ {
					termOnce()
				}
			}
			mb.WaitEmpty()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if failure != nil {
			t.Fatal(failure)
		}
	}
}

// TestSelfDeliverZeroAlloc pins synchronous self-delivery: no transport,
// no coalescing — just the handler invocation, which must not allocate.
func TestSelfDeliverZeroAlloc(t *testing.T) {
	skipIfYgmcheck(t)
	var failure error
	_, err := transport.Run(transport.Config{
		Topo:  machine.New(1, 1),
		Model: netsim.Quartz(),
		Seed:  7,
	}, func(p *transport.Proc) error {
		var got int
		mb := New(p, func(s Sender, payload []byte) { got++ },
			WithScheme(machine.NLNR),
			WithExchange(LazyExchange))
		payload := []byte("0123456789abcdef")
		self := func() { mb.Send(p.Rank(), payload) }
		self()
		if avg := testing.AllocsPerRun(allocRuns, self); avg != 0 {
			failure = fmt.Errorf("self-delivery allocates %.1f allocs/op, want 0", avg)
		}
		mb.WaitEmpty()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if failure != nil {
		t.Fatal(failure)
	}
}
