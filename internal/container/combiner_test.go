package container

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// Tests for Counter's owner-local apply and sender-side combining: the
// table's collision, eviction and re-entrancy paths against a sequential
// model, the visibility rule, handler-issued adds bypassing the table,
// the hit-rate bypass, and the add counters.

// longKey does not fit a combiner slot's inline key.
var longKey = []byte("a-key-longer-than-the-inline-width")

// remoteKeys returns the first n keys of key(0), key(1), … that owner
// owns, for tests that need to aim an operation at a given rank.
func remoteKeys(c *Counter, owner machine.Rank, n int) [][]byte {
	var out [][]byte
	for i := 0; len(out) < n; i++ {
		if k := key(i); c.Owner(k) == owner {
			out = append(out, k)
		}
	}
	return out
}

// Script operations of the tiny-table sweep.
const (
	sweepAdd = iota
	sweepVisit
	sweepFetch
)

type sweepOp struct {
	kind  int
	key   int    // index into the shared key space
	delta uint64 // add: the contribution; visit/fetch: seeds the spawned add
}

const (
	sweepKeys   = 6
	sweepPhases = 3
	sweepOps    = 40
)

func sweepScript(seed int64, rank machine.Rank) [][]sweepOp {
	rng := rand.New(rand.NewSource(seed*7919 + int64(rank)*104729 + 3))
	phases := make([][]sweepOp, sweepPhases)
	for ph := range phases {
		for i := 0; i < sweepOps; i++ {
			op := sweepOp{key: rng.Intn(sweepKeys), delta: uint64(rng.Intn(9))}
			switch k := rng.Intn(10); {
			case k < 6:
				op.kind = sweepAdd
			case k < 8:
				op.kind = sweepVisit
			default:
				op.kind = sweepFetch
			}
			phases[ph] = append(phases[ph], op)
		}
	}
	return phases
}

// spawnedKey is the key a visit's handler, or a fetch's callback, adds
// to: a function of the operation alone, so the model can replay it.
func spawnedKey(op sweepOp) int { return (op.key + int(op.delta) + 1) % sweepKeys }

// sweepModel replays every rank's script sequentially: a visit adds
// delta to its key on the owner and its handler adds delta+1 to the
// spawned key; a fetch's callback adds delta+2 to the spawned key.
func sweepModel(seed int64, world int) map[string]uint64 {
	m := make(map[string]uint64)
	for r := 0; r < world; r++ {
		for _, ops := range sweepScript(seed, machine.Rank(r)) {
			for _, op := range ops {
				switch op.kind {
				case sweepAdd:
					m[string(key(op.key))] += op.delta
				case sweepVisit:
					m[string(key(op.key))] += op.delta
					m[string(key(spawnedKey(op)))] += op.delta + 1
				case sweepFetch:
					m[string(key(spawnedKey(op)))] += op.delta + 2
				}
			}
		}
	}
	return m
}

// TestCombinerTinyTableMatchesModel shrinks the combiner to two slots,
// so that six keys collide and evict on nearly every operation, and runs
// seeded scripts of adds, visits whose handlers add, and fetches whose
// callbacks add. Every fetch must read at least what its own rank had
// contributed to the key when it was issued, and the final table must
// equal the sequential model's. Each Barrier must leave the combiner
// empty, and the add counters must account for every add issued,
// handlers' and callbacks' included.
func TestCombinerTinyTableMatchesModel(t *testing.T) {
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			// A capacity of 4 makes nearly every Send start an exchange and
			// dispatch handlers, and their visits and fetches detach slots,
			// mid-operation.
			const capacity = 4
			for seed := int64(1); seed <= 6; seed++ {
				seed := seed
				model := sweepModel(seed, 4)
				runWorld(t, 2, 2, 30+seed, func(p *transport.Proc) error {
					e := NewEngine(p, v.opt, ygm.WithScheme(machine.NLNR), ygm.WithCapacity(capacity))
					e.combSlots = 2
					c := NewCounter(e, nil)
					me := p.Rank()
					mine := make(map[string]uint64) // what this rank has contributed, by key
					adds := uint64(0)
					add := func(k []byte, delta uint64) {
						mine[string(k)] += delta
						adds++
						c.AsyncAdd(k, delta)
					}
					visit := c.RegisterVisitor(func(c *Counter, k, arg []byte) {
						r := codec.NewReader(arg)
						delta, _ := r.Uvarint()
						spawned, _ := r.Uvarint()
						c.LocalAdd(k, delta)
						add(key(int(spawned)), delta+1)
					})
					count := c.RegisterFetcher(func(c *Counter, k, arg []byte, reply *codec.Writer) {
						reply.Uvarint(c.LocalCount(k))
					})
					var stale []string
					for _, ops := range sweepScript(seed, me) {
						for _, op := range ops {
							op := op
							k := key(op.key)
							switch op.kind {
							case sweepAdd:
								add(k, op.delta)
							case sweepVisit:
								w := codec.NewWriter(8)
								w.Uvarint(op.delta)
								w.Uvarint(uint64(spawnedKey(op)))
								c.AsyncVisit(visit, k, w.Bytes())
							case sweepFetch:
								want := mine[string(k)]
								c.AsyncVisitFetch(count, k, nil, func(reply []byte) {
									got, _ := codec.NewReader(reply).Uvarint()
									if got < want {
										stale = append(stale, fmt.Sprintf("fetch of %s read %d, this rank alone had added %d", k, got, want))
									}
									add(key(spawnedKey(op)), op.delta+2)
								})
							}
						}
						e.Barrier()
						if c.comb.live != 0 {
							return fmt.Errorf("rank %d, seed %d: %d contributions still in the table after Barrier", me, seed, c.comb.live)
						}
					}
					if len(stale) > 0 {
						return fmt.Errorf("rank %d, seed %d: %s", me, seed, strings.Join(stale, "; "))
					}
					local, combined := e.cAddLocal.Value(), e.cAddCombined.Value()
					shipped, bypassed := e.cAddShipped.Value(), e.cAddBypassed.Value()
					if shipped == 0 || combined == 0 || bypassed == 0 {
						return fmt.Errorf("rank %d, seed %d: %d shipped, %d combined, %d bypassed: the sweep did not exercise the table and its bypass",
							me, seed, shipped, combined, bypassed)
					}
					if got := local + combined + shipped + bypassed; got != adds {
						return fmt.Errorf("rank %d, seed %d: local %d + combined %d + shipped %d + bypassed %d = %d, want the %d adds issued",
							me, seed, local, combined, shipped, bypassed, got, adds)
					}
					var bad []string
					c.ForAll(func(k string, n uint64) {
						if n != model[k] {
							bad = append(bad, fmt.Sprintf("%s = %d, model %d", k, n, model[k]))
						}
					})
					if len(bad) > 0 {
						return fmt.Errorf("rank %d, seed %d: %s", me, seed, strings.Join(bad, "; "))
					}
					if got, want := c.Size(), uint64(len(model)); got != want {
						return fmt.Errorf("rank %d, seed %d: size %d, model has %d keys", me, seed, got, want)
					}
					return nil
				})
			}
		})
	}
}

// TestBarrierShipsAddFromItsLastWaitEmpty: adds issued inside Barrier's
// WaitEmpty — by a visitor on rank 1 and by a fetch callback on rank 0,
// both aimed at a key on rank 2 — never enter a combiner table. They ship
// at once, so both are on rank 2 when Barrier returns, read without any
// further synchronization, and no rank ever allocated a table.
func TestBarrierShipsAddFromItsLastWaitEmpty(t *testing.T) {
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			runWorld(t, 2, 2, 41, func(p *transport.Proc) error {
				e := NewEngine(p, v.opt, ygm.WithScheme(machine.NoRoute), ygm.WithCapacity(64))
				c := NewCounter(e, nil)
				relay := c.RegisterVisitor(func(c *Counter, k, arg []byte) { c.AsyncAdd(arg, 7) })
				get := c.RegisterFetcher(func(*Counter, []byte, []byte, *codec.Writer) {})
				via, target := remoteKeys(c, 1, 1)[0], remoteKeys(c, 2, 1)[0]
				if p.Rank() == 0 {
					c.AsyncVisit(relay, via, target)
					c.AsyncVisitFetch(get, via, nil, func([]byte) { c.AsyncAdd(target, 5) })
				}
				e.Barrier()
				if c.comb.slots != nil {
					return fmt.Errorf("rank %d: a handler- or callback-issued add allocated the combiner table", p.Rank())
				}
				want := map[machine.Rank]uint64{0: 1, 1: 1}[p.Rank()]
				if got := e.cAddBypassed.Value(); got != want {
					return fmt.Errorf("rank %d: %d adds bypassed the table, want %d", p.Rank(), got, want)
				}
				if p.Rank() == 2 {
					if got := c.LocalCount(target); got != 12 {
						return fmt.Errorf("handler- and callback-issued adds read %d on their owner after Barrier, want 12", got)
					}
				}
				return nil
			})
		})
	}
}

// TestCounterFetchReadsOwnAdds pins the visibility rule on each way a
// contribution can travel: n adds followed by a fetch read n whether the
// sum was still pending in the table, had been evicted by a colliding
// key, or never entered the table.
func TestCounterFetchReadsOwnAdds(t *testing.T) {
	if len(longKey) <= combinerKeyMax {
		t.Fatalf("test key of %d bytes fits the %d-byte inline width", len(longKey), combinerKeyMax)
	}
	cases := []struct {
		name  string
		slots int
		setup func(c *Counter)
		long  bool // fetch longKey instead of a short key of rank 1
		check func(e *Engine) error
	}{
		{"pending", combinerSlots, func(*Counter) {}, false,
			func(e *Engine) error {
				if e.cAddBypassed.Value() != 0 || e.cAddCombined.Value() == 0 {
					return fmt.Errorf("%d bypassed, %d combined", e.cAddBypassed.Value(), e.cAddCombined.Value())
				}
				return nil
			}},
		{"evicted", 1, func(*Counter) {}, false,
			func(e *Engine) error {
				if e.cAddBypassed.Value() != 0 || e.cAddCombined.Value() != 0 {
					return fmt.Errorf("%d bypassed, %d combined", e.cAddBypassed.Value(), e.cAddCombined.Value())
				}
				return nil
			}},
		{"bypassed", combinerSlots, func(c *Counter) { c.comb.bypass = 1 << 30 }, false,
			func(e *Engine) error {
				if e.cAddShipped.Value() != 0 || e.cAddCombined.Value() != 0 {
					return fmt.Errorf("%d shipped, %d combined", e.cAddShipped.Value(), e.cAddCombined.Value())
				}
				return nil
			}},
		{"long-key", combinerSlots, func(*Counter) {}, true,
			func(e *Engine) error {
				if e.cAddBypassed.Value() == 0 {
					return fmt.Errorf("no add bypassed the table: the long key is not remote")
				}
				return nil
			}},
	}
	for _, v := range variants {
		for _, tc := range cases {
			v, tc := v, tc
			t.Run(v.name+"/"+tc.name, func(t *testing.T) {
				const n = 25
				runWorld(t, 1, 2, 42, func(p *transport.Proc) error {
					e := NewEngine(p, v.opt, ygm.WithScheme(machine.NoRoute), ygm.WithCapacity(8))
					e.combSlots = tc.slots
					c := NewCounter(e, nil)
					count := c.RegisterFetcher(func(c *Counter, k, arg []byte, reply *codec.Writer) {
						reply.Uvarint(c.LocalCount(k))
					})
					read := uint64(1 << 40)
					if p.Rank() == 0 {
						tc.setup(c)
						ks := remoteKeys(c, 1, 2)
						k, other := ks[0], ks[1]
						if tc.long {
							k = longKey
						}
						for i := 0; i < n; i++ {
							c.AsyncAdd(k, 1)
							c.AsyncAdd(other, 1) // collides with k in a one-slot table
						}
						c.AsyncVisitFetch(count, k, nil, func(reply []byte) {
							read, _ = codec.NewReader(reply).Uvarint()
						})
					}
					e.Barrier()
					if p.Rank() == 0 {
						if read != n {
							return fmt.Errorf("fetch after %d adds read %d", n, read)
						}
						return tc.check(e)
					}
					return nil
				})
			})
		}
	}
}

// TestAsyncAddZeroCreatesKey: a zero contribution is still a
// contribution. The key must exist on its owner after the Barrier
// whether the add was applied in place or waited in the table.
func TestAsyncAddZeroCreatesKey(t *testing.T) {
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			runWorld(t, 1, 2, 43, func(p *transport.Proc) error {
				e := NewEngine(p, v.opt, ygm.WithScheme(machine.NoRoute), ygm.WithCapacity(8))
				c := NewCounter(e, nil)
				if p.Rank() == 0 {
					c.AsyncAdd(remoteKeys(c, 0, 1)[0], 0)
					c.AsyncAdd(remoteKeys(c, 1, 1)[0], 0)
				}
				if got := c.Size(); got != 2 {
					return fmt.Errorf("rank %d: size after two zero adds = %d, want 2", p.Rank(), got)
				}
				return nil
			})
		})
	}
}

// TestCombinerBypassFollowsReuse drives rank 0 with a stream in which no
// key ever repeats, then with one that cycles over a few keys. The
// bypass must switch on within a window of the first and, once the
// stretch it set has run out, stay off on the second.
func TestCombinerBypassFollowsReuse(t *testing.T) {
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			runWorld(t, 1, 2, 44, func(p *transport.Proc) error {
				e := NewEngine(p, v.opt, ygm.WithScheme(machine.NoRoute), ygm.WithCapacity(1024))
				c := NewCounter(e, nil)
				if p.Rank() == 0 {
					next := 0
					unique := func() []byte { // the next never-used key that rank 1 owns
						for {
							k := key(1_000_000 + next)
							next++
							if c.Owner(k) == 1 {
								return k
							}
						}
					}
					for i := 0; i < combinerWindow; i++ {
						c.AsyncAdd(unique(), 1)
					}
					if c.comb.bypass == 0 {
						return fmt.Errorf("bypass still off after a window of %d unique keys", combinerWindow)
					}
					for i := 0; i < combinerWindow; i++ {
						c.AsyncAdd(unique(), 1)
					}
					if got := e.cAddBypassed.Value(); got != combinerWindow {
						return fmt.Errorf("%d adds bypassed the table, want the %d issued since the bypass engaged", got, combinerWindow)
					}
					hot := remoteKeys(c, 1, 8)
					for i := 0; i < combinerBypass+2*combinerWindow; i++ {
						c.AsyncAdd(hot[i%len(hot)], 1)
					}
					if c.comb.bypass != 0 {
						return fmt.Errorf("bypass still on %d adds into a stream of %d keys", combinerBypass+2*combinerWindow, len(hot))
					}
					if got := e.cAddCombined.Value(); got < 2*combinerWindow-uint64(len(hot)) {
						return fmt.Errorf("%d adds combined once reuse returned, want at least %d", got, 2*combinerWindow-len(hot))
					}
				}
				e.Barrier()
				return nil
			})
		})
	}
}

// TestCombinerGrowsToItsKeys: the table starts small and doubles as
// evictions turn it over. Growing must neither drop nor ship a pending
// contribution, must stop at the full size, and a stream with this much
// reuse must never trip the bypass on the way up.
func TestCombinerGrowsToItsKeys(t *testing.T) {
	const keys, rounds = 3000, 6
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			runWorld(t, 1, 2, 46, func(p *transport.Proc) error {
				e := NewEngine(p, v.opt, ygm.WithScheme(machine.NoRoute), ygm.WithCapacity(256))
				c := NewCounter(e, nil)
				hot := remoteKeys(c, 1, keys)
				if p.Rank() == 0 {
					for r := 0; r < rounds; r++ {
						for _, k := range hot {
							c.AsyncAdd(k, 1)
						}
					}
					if n := len(c.comb.slots); n <= combinerMinSlots || n > combinerSlots || n&(n-1) != 0 {
						return fmt.Errorf("table has %d slots after %d keys, want a power of two in (%d, %d]", n, keys, combinerMinSlots, combinerSlots)
					}
					if c.comb.live == 0 || e.cAddCombined.Value() == 0 {
						return fmt.Errorf("%d pending, %d combined: the grown table holds nothing", c.comb.live, e.cAddCombined.Value())
					}
					if got := e.cAddBypassed.Value(); got != 0 {
						return fmt.Errorf("%d adds bypassed a table that was still growing into its keys", got)
					}
				}
				e.Barrier()
				if p.Rank() == 1 {
					for _, k := range hot {
						if got := c.LocalCount(k); got != rounds {
							return fmt.Errorf("key %s = %d after %d rounds", k, got, rounds)
						}
					}
				}
				return nil
			})
		})
	}
}

// TestAddCountersAccountForEveryAdd: every AsyncAdd is counted exactly
// once as local, combined, shipped or bypassed, and on an add-only run
// the last two are exactly the records the mailbox was asked to send.
func TestAddCountersAccountForEveryAdd(t *testing.T) {
	const perRank = 3000
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			sends := make([]uint64, 4)
			rep, err := transport.Run(transport.Config{
				Topo:  machine.New(2, 2),
				Model: netsim.Quartz(),
				Seed:  45,
			}, func(p *transport.Proc) error {
				e := NewEngine(p, v.opt, ygm.WithScheme(machine.NLNR), ygm.WithCapacity(64))
				e.combSlots = 16 // 40 keys: hits and evictions both common
				c := NewCounter(e, nil)
				c.comb.bypass = 100 // and a stretch of direct sends
				rng := p.Rng()
				for i := 0; i < perRank; i++ {
					if i%50 == 0 {
						c.AsyncAdd(longKey, 2)
						continue
					}
					c.AsyncIncr(key(rng.Intn(40)))
				}
				e.Barrier()
				sends[p.Rank()] = e.Mailbox().Stats().Sends
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			m := rep.Metrics()
			local, combined := m.Counter("container.add.local"), m.Counter("container.add.combined")
			shipped, bypassed := m.Counter("container.add.shipped"), m.Counter("container.add.bypassed")
			if local == 0 || combined == 0 || shipped == 0 || bypassed == 0 {
				t.Errorf("local %d, combined %d, shipped %d, bypassed %d: every path should have been taken", local, combined, shipped, bypassed)
			}
			if got := local + combined + shipped + bypassed; got != 4*perRank {
				t.Errorf("local %d + combined %d + shipped %d + bypassed %d = %d, want the %d adds issued",
					local, combined, shipped, bypassed, got, 4*perRank)
			}
			var sent uint64
			for _, n := range sends {
				sent += n
			}
			if shipped+bypassed != sent {
				t.Errorf("shipped %d + bypassed %d = %d, mailboxes counted %d sends", shipped, bypassed, shipped+bypassed, sent)
			}
		})
	}
}

// TestHandleRejectsMalformedRecord: a record must end where its last
// frame ends. A stray trailing byte or a cut-off frame panics as a
// corrupt frame instead of being skipped.
func TestHandleRejectsMalformedRecord(t *testing.T) {
	runAllocPin(t, func(e *Engine) error {
		c := NewCounter(e, nil)
		w := codec.NewWriter(32)
		putAdd(w, c.cid, []byte("k"), 5)
		putAdd(w, c.cid, []byte("k"), 6)
		good := append([]byte(nil), w.Bytes()...)
		e.handle(nil, good)
		if got := c.LocalCount([]byte("k")); got != 11 {
			return fmt.Errorf("two-frame record applied %d, want 11", got)
		}
		for name, bad := range map[string][]byte{
			"trailing":  append(append([]byte(nil), good...), 0),
			"truncated": good[:len(good)-1],
		} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				e.handle(nil, bad)
				return
			}()
			if !strings.Contains(msg, "corrupt frame") {
				return fmt.Errorf("%s record: handle panicked with %q, want a corrupt frame panic", name, msg)
			}
			// The panic unwound past handle's pop; restore the depth the
			// next case starts from.
			e.rDepth = 0
		}
		return nil
	})
}
