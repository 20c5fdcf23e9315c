package container

import (
	"fmt"
	"strconv"
	"testing"

	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// Steady-state allocation pins for the container hot path. A one-rank
// world makes every key self-owned, so each operation runs the complete
// container cycle synchronously inside the call — encode into the
// scratch stack, mailbox self-delivery, frame decode, owner-side apply —
// with no cooperating peer needed inside the measured window. The
// mailbox's own remote exchange cycle (coalesce, pack, pooled send,
// drain) carries container frames as opaque payloads and is pinned
// separately by the internal/ygm alloc tests; together the two pins
// cover the full remote path.
//
// Steady state means keys already live: first-touch inserts allocate
// (key copy, map entry) by design.

const (
	allocKeys   = 64
	allocWarmup = 4
	allocRuns   = 32
)

// skipIfYgmcheck mirrors the ygm pins: the invariant layer's checkf
// calls box their arguments, so instrumented builds legitimately
// allocate.
func skipIfYgmcheck(t *testing.T) {
	t.Helper()
	if ygm.YgmcheckEnabled() {
		t.Skip("ygmcheck invariant layer allocates; pins target the production build")
	}
}

func runAllocPin(t *testing.T, body func(e *Engine) error) {
	t.Helper()
	_, err := transport.Run(transport.Config{
		Topo:  machine.New(1, 1),
		Model: netsim.Quartz(),
		Seed:  5,
	}, func(p *transport.Proc) error {
		e := NewEngine(p,
			ygm.WithExchange(ygm.LazyExchange),
			ygm.WithScheme(machine.NoRoute),
			ygm.WithCapacity(1<<20))
		return body(e)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func allocKeySet() [][]byte {
	keys := make([][]byte, allocKeys)
	for i := range keys {
		keys[i] = strconv.AppendInt(nil, int64(i), 10)
	}
	return keys
}

func TestMapAsyncInsertSteadyStateZeroAlloc(t *testing.T) {
	skipIfYgmcheck(t)
	runAllocPin(t, func(e *Engine) error {
		m := NewMap(e, nil)
		keys := allocKeySet()
		val := []byte("0123456789abcdef")
		insertAll := func() {
			for _, k := range keys {
				m.AsyncInsert(k, val)
			}
		}
		for i := 0; i < allocWarmup; i++ {
			insertAll()
		}
		if avg := testing.AllocsPerRun(allocRuns, insertAll); avg != 0 {
			return fmt.Errorf("map AsyncInsert of %d live keys allocates %.1f allocs/run, want 0", allocKeys, avg)
		}
		return nil
	})
}

func TestMapAsyncVisitSteadyStateZeroAlloc(t *testing.T) {
	skipIfYgmcheck(t)
	runAllocPin(t, func(e *Engine) error {
		m := NewMap(e, nil)
		touched := 0
		vid := m.RegisterVisitor(func(m *Map, k, arg []byte) {
			if _, ok := m.LocalGet(k); ok {
				touched++
			}
		})
		keys := allocKeySet()
		for _, k := range keys {
			m.AsyncInsert(k, []byte("v"))
		}
		visitAll := func() {
			for _, k := range keys {
				m.AsyncVisit(vid, k, nil)
			}
		}
		for i := 0; i < allocWarmup; i++ {
			visitAll()
		}
		if avg := testing.AllocsPerRun(allocRuns, visitAll); avg != 0 {
			return fmt.Errorf("map AsyncVisit of %d live keys allocates %.1f allocs/run, want 0", allocKeys, avg)
		}
		if touched == 0 {
			return fmt.Errorf("visitor never observed a live key")
		}
		return nil
	})
}

func TestCounterAsyncAddSteadyStateZeroAlloc(t *testing.T) {
	skipIfYgmcheck(t)
	// Owner-local apply: one rank owns every key.
	runAllocPin(t, func(e *Engine) error {
		c := NewCounter(e, nil)
		keys := allocKeySet()
		addAll := func() {
			for _, k := range keys {
				c.AsyncAdd(k, 3)
			}
		}
		for i := 0; i < allocWarmup; i++ {
			addAll()
		}
		if avg := testing.AllocsPerRun(allocRuns, addAll); avg != 0 {
			return fmt.Errorf("counter AsyncAdd of %d live keys allocates %.1f allocs/run, want 0", allocKeys, avg)
		}
		return nil
	})
	// The remote paths, one at a time, on rank 0 of a two-rank world. The
	// window covers everything the container layer does up to and
	// including the mailbox's queueing of each shipped record; a warm-up
	// of more than the window's volume followed by a Barrier leaves the
	// coalescing buffer grown, and the capacity keeps the window free of
	// exchanges, whose own pins live in internal/ygm.
	// off sums the add counters that must stand still while a path is
	// driven, i.e. those of the other two remote paths.
	paths := []struct {
		name  string
		slots int
		setup func(c *Counter)
		off   func(e *Engine) uint64
	}{
		{"hit", combinerSlots, func(*Counter) {},
			func(e *Engine) uint64 { return e.cAddShipped.Value() + e.cAddBypassed.Value() }},
		{"evict", 1, func(*Counter) {},
			func(e *Engine) uint64 { return e.cAddCombined.Value() + e.cAddBypassed.Value() }},
		{"bypass", combinerSlots, func(c *Counter) { c.comb.bypass = 1 << 30 },
			func(e *Engine) uint64 { return e.cAddCombined.Value() + e.cAddShipped.Value() }},
	}
	for _, path := range paths {
		path := path
		t.Run(path.name, func(t *testing.T) {
			var failure error
			_, err := transport.Run(transport.Config{
				Topo:  machine.New(1, 2),
				Model: netsim.Quartz(),
				Seed:  5,
			}, func(p *transport.Proc) error {
				e := NewEngine(p,
					ygm.WithExchange(ygm.LazyExchange),
					ygm.WithScheme(machine.NoRoute),
					ygm.WithCapacity(1<<20))
				e.combSlots = path.slots
				c := NewCounter(e, nil)
				if p.Rank() == 0 {
					var keys [][]byte
					for _, k := range allocKeySet() {
						if c.Owner(k) != p.Rank() {
							keys = append(keys, k)
						}
					}
					path.setup(c)
					addAll := func() {
						for _, k := range keys {
							c.AsyncAdd(k, 3)
						}
					}
					// Warm up for more than the window's volume, and on until
					// the path is the only one taken (the hit path evicts
					// until the table has grown past its keys' collisions).
					for i, off := 0, ^uint64(0); i < 2*allocRuns || off != path.off(e); i++ {
						off = path.off(e)
						addAll()
					}
					e.Barrier()
					addAll() // re-seat what the Barrier flushed
					off := path.off(e)
					if avg := testing.AllocsPerRun(allocRuns, addAll); avg != 0 {
						failure = fmt.Errorf("remote AsyncAdd of %d live keys allocates %.1f allocs/run, want 0", len(keys), avg)
					} else if got := path.off(e) - off; got != 0 {
						failure = fmt.Errorf("%d adds took another path inside the window", got)
					}
				} else {
					e.Barrier()
				}
				e.Barrier()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if failure != nil {
				t.Fatal(failure)
			}
		})
	}
}

// TestChainedVisitRemoteSteadyState complements the self-delivery pins
// with a remote smoke check (not an alloc pin): on a two-rank world the
// same operations flow through the real coalescing exchange, and the
// counters must come out identical to the one-rank run.
func TestChainedVisitRemoteSteadyState(t *testing.T) {
	_, err := transport.Run(transport.Config{
		Topo:  machine.New(1, 2),
		Model: netsim.Quartz(),
		Seed:  6,
	}, func(p *transport.Proc) error {
		e := NewEngine(p,
			ygm.WithExchange(ygm.LazyExchange),
			ygm.WithScheme(machine.NoRoute),
			ygm.WithCapacity(64))
		c := NewCounter(e, nil)
		keys := allocKeySet()
		const rounds = allocWarmup + allocRuns
		for i := 0; i < rounds; i++ {
			for _, k := range keys {
				c.AsyncAdd(k, 1)
			}
		}
		e.Barrier()
		world := uint64(p.WorldSize())
		bad := 0
		c.ForAll(func(k string, count uint64) {
			if count != world*rounds {
				bad++
			}
		})
		if bad != 0 {
			return fmt.Errorf("rank %d: %d keys miscounted on the remote path", p.Rank(), bad)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
