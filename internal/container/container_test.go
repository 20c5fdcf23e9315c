package container

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"

	"ygm/internal/collective"
	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// variants is the exchange matrix every functional test runs under: the
// container layer must behave identically on all three mailbox designs.
var variants = []struct {
	name string
	opt  ygm.Option
}{
	{"lazy", ygm.WithExchange(ygm.LazyExchange)},
	{"round", ygm.WithExchange(ygm.RoundExchange)},
	{"sync", ygm.WithExchange(ygm.SyncExchange)},
}

// runWorld executes body on every rank of a nodes x cores simulated
// cluster with the given exchange variant already folded into opts.
func runWorld(t *testing.T, nodes, cores int, seed int64, body func(p *transport.Proc) error) {
	t.Helper()
	_, err := transport.Run(transport.Config{
		Topo:  machine.New(nodes, cores),
		Model: netsim.Quartz(),
		Seed:  seed,
	}, body)
	if err != nil {
		t.Fatal(err)
	}
}

func key(i int) []byte { return strconv.AppendInt(nil, int64(i), 10) }

func TestMapInsertEraseSize(t *testing.T) {
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			const perRank = 200
			runWorld(t, 2, 2, 11, func(p *transport.Proc) error {
				e := NewEngine(p, v.opt, ygm.WithScheme(machine.NLNR), ygm.WithCapacity(64))
				m := NewMap(e, nil)
				me := int(p.Rank())
				world := p.WorldSize()
				for i := 0; i < perRank; i++ {
					id := me*perRank + i
					m.AsyncInsert(key(id), []byte(fmt.Sprintf("value-%d", id)))
				}
				if got, want := m.Size(), uint64(world*perRank); got != want {
					return fmt.Errorf("rank %d: size after insert = %d, want %d", me, got, want)
				}
				// Overwrite every key from a *different* rank (last writer
				// wins), then erase the odd half from yet another rank.
				for i := 0; i < perRank; i++ {
					id := ((me+1)%world)*perRank + i
					m.AsyncInsert(key(id), []byte(fmt.Sprintf("value2-%d", id)))
				}
				e.Barrier()
				for i := 0; i < perRank; i++ {
					id := ((me+2)%world)*perRank + i
					if id%2 == 1 {
						m.AsyncErase(key(id))
					}
				}
				if got, want := m.Size(), uint64(world*perRank/2); got != want {
					return fmt.Errorf("rank %d: size after erase = %d, want %d", me, got, want)
				}
				// Every surviving key must hold the overwritten value.
				bad := 0
				m.ForAll(func(k string, val []byte) {
					if string(val) != "value2-"+k {
						bad++
					}
				})
				if bad != 0 {
					return fmt.Errorf("rank %d: %d keys hold stale values", me, bad)
				}
				return nil
			})
		})
	}
}

func TestCounterAccumulatesAndTopK(t *testing.T) {
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			runWorld(t, 2, 2, 14, func(p *transport.Proc) error {
				e := NewEngine(p, v.opt, ygm.WithScheme(machine.NLNR), ygm.WithCapacity(64))
				c := NewCounter(e, nil)
				world := uint64(p.WorldSize())
				// Every rank contributes i+1 to key i: global count of key i
				// is world*(i+1), making the heavy hitters the high keys.
				const keys = 100
				for i := 0; i < keys; i++ {
					c.AsyncAdd(key(i), uint64(i+1))
				}
				if got := c.Size(); got != keys {
					return fmt.Errorf("rank %d: counter size = %d, want %d", p.Rank(), got, keys)
				}
				bad := 0
				c.ForAll(func(k string, count uint64) {
					id, _ := strconv.ParseUint(k, 10, 64)
					if count != world*(id+1) {
						bad++
					}
				})
				if bad != 0 {
					return fmt.Errorf("rank %d: %d keys accumulated wrong counts", p.Rank(), bad)
				}
				top := c.TopK(3)
				want := []KeyCount{
					{Key: "99", Count: world * 100},
					{Key: "98", Count: world * 99},
					{Key: "97", Count: world * 98},
				}
				if len(top) != len(want) {
					return fmt.Errorf("rank %d: TopK returned %d entries, want %d", p.Rank(), len(top), len(want))
				}
				for i := range want {
					if top[i] != want[i] {
						return fmt.Errorf("rank %d: TopK[%d] = %+v, want %+v", p.Rank(), i, top[i], want[i])
					}
				}
				return nil
			})
		})
	}
}

// TestVisitorMutatesOwnerShard exercises AsyncVisit: a visitor that
// appends the argument to the stored value on the owner, issued from
// every rank against keys it does not own.
func TestVisitorMutatesOwnerShard(t *testing.T) {
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			const keys = 64
			runWorld(t, 2, 2, 15, func(p *transport.Proc) error {
				e := NewEngine(p, v.opt, ygm.WithScheme(machine.NoRoute), ygm.WithCapacity(32))
				m := NewMap(e, nil)
				appendV := m.RegisterVisitor(func(m *Map, k, arg []byte) {
					old, _ := m.LocalGet(k)
					m.LocalPut(k, append(append([]byte{}, old...), arg...))
				})
				if p.Rank() == 0 {
					for i := 0; i < keys; i++ {
						m.AsyncInsert(key(i), nil)
					}
				}
				e.Barrier()
				// Every rank appends one '+' per key; order across ranks is
				// unspecified but the length is exact.
				for i := 0; i < keys; i++ {
					m.AsyncVisit(appendV, key(i), []byte{'+'})
				}
				e.Barrier()
				bad := 0
				m.ForAll(func(k string, val []byte) {
					if len(val) != p.WorldSize() {
						bad++
					}
				})
				if bad != 0 {
					return fmt.Errorf("rank %d: %d keys saw the wrong number of visits", p.Rank(), bad)
				}
				return nil
			})
		})
	}
}

// TestChainedVisitQuiescence is the satellite-2 regression: a visitor
// that chains a further AsyncVisit to a different key (usually on a
// third rank) exactly while the termination detector may be voting.
// Barrier must count the whole chain: after it returns, every visit of
// every chain must have executed on its owner. Runs across a seed sweep
// so chains hit the voting window at many different points.
func TestChainedVisitQuiescence(t *testing.T) {
	const (
		depth    = 8
		perRank  = 24
		numSeeds = 12
	)
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(0); seed < numSeeds; seed++ {
				runWorld(t, 2, 2, 100+seed, func(p *transport.Proc) error {
					e := NewEngine(p, v.opt, ygm.WithScheme(machine.NLNR), ygm.WithCapacity(16))
					c := NewCounter(e, nil)
					var chain uint64
					chain = c.RegisterVisitor(func(c *Counter, k, arg []byte) {
						ttl := arg[0]
						c.applyAdd(k, 1) // count the hop on the owner
						if ttl > 0 {
							id, _ := strconv.ParseUint(string(k), 10, 64)
							next := splitmix64(id*2654435761 + uint64(ttl))
							c.AsyncVisit(chain, key(int(next%1024)), []byte{ttl - 1})
						}
					})
					world := uint64(p.WorldSize())
					for i := 0; i < perRank; i++ {
						c.AsyncVisit(chain, key(i), []byte{depth - 1})
					}
					e.Barrier()
					var total uint64
					for _, cnt := range c.local {
						total += *cnt
					}
					if got, want := e.allreduceSum(total), world*perRank*depth; got != want {
						return fmt.Errorf("rank %d seed %d: chain hops counted = %d, want %d (premature quiescence)",
							p.Rank(), seed, got, want)
					}
					return nil
				})
			}
		})
	}
}

// TestChainedVisitDetectsForcedVerdict proves the regression above has
// teeth: with the ForceVerdict mutation hook manufacturing a premature
// termination on the lazy detector, the chain count must come up short.
// A mutant the test cannot catch would make the quiescence check vacuous.
func TestChainedVisitDetectsForcedVerdict(t *testing.T) {
	const (
		depth   = 8
		perRank = 24
	)
	var forced atomic.Int64 // joins the hook forced while packets were unacknowledged
	hooks := &ygm.TestHooks{
		ForceVerdict: func(honest bool) bool {
			if !honest {
				forced.Add(1)
			}
			return true // join the barrier with packets unacknowledged
		},
	}
	caught := false
	_, err := transport.Run(transport.Config{
		Topo:  machine.New(2, 2),
		Model: netsim.Quartz(),
		Seed:  77,
	}, func(p *transport.Proc) error {
		e := NewEngine(p,
			ygm.WithExchange(ygm.LazyExchange),
			ygm.WithScheme(machine.NLNR),
			ygm.WithCapacity(16),
			ygm.WithHooks(hooks))
		c := NewCounter(e, nil)
		var chain uint64
		chain = c.RegisterVisitor(func(c *Counter, k, arg []byte) {
			ttl := arg[0]
			c.applyAdd(k, 1)
			if ttl > 0 {
				id, _ := strconv.ParseUint(string(k), 10, 64)
				c.AsyncVisit(chain, key(int(splitmix64(id+uint64(ttl))%1024)), []byte{ttl - 1})
			}
		})
		for i := 0; i < perRank; i++ {
			c.AsyncVisit(chain, key(i), []byte{depth - 1})
		}
		e.mb.WaitEmpty() // the forced verdict cuts this short
		var total uint64
		for _, cnt := range c.local {
			total += *cnt
		}
		world := uint64(p.WorldSize())
		got := collective.World(p).AllreduceU64([]uint64{total}, collective.SumU64)[0]
		if p.Rank() == 0 && got < world*perRank*depth {
			caught = true
		}
		return nil
	})
	if err != nil {
		// Under -tags ygmcheck the invariant layer itself convicts the
		// forced verdict (a deficit left at the verdict, or records
		// left unflushed) — equally proof the mutant cannot slip through.
		t.Logf("forced verdict caught by the runtime invariant layer: %v", err)
		return
	}
	if forced.Load() == 0 {
		t.Skip("forced-verdict window never opened (every join was honest); nothing to assert")
	}
	if !caught {
		t.Fatal("ForceVerdict mutant ran to completion with all chain hops counted; the quiescence regression is vacuous")
	}
}
