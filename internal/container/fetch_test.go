package container

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// TestAsyncVisitFetchReadYourWrites pins the reply/future primitive: a
// rank inserts a key (possibly owned elsewhere, possibly by itself) and
// immediately fetches it back; the fetcher must observe the write,
// because the insert and the fetch ride the same mailbox channel in
// order, and the callback must run by the end of the next Barrier.
func TestAsyncVisitFetchReadYourWrites(t *testing.T) {
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			const keys = 120 // enough that every rank owns some (self-fetch included)
			runWorld(t, 2, 2, 21, func(p *transport.Proc) error {
				e := NewEngine(p, v.opt, ygm.WithScheme(machine.NLNR), ygm.WithCapacity(32))
				m := NewMap(e, nil)
				get := m.RegisterFetcher(func(m *Map, k, arg []byte, reply *codec.Writer) {
					val, ok := m.LocalGet(k)
					if !ok {
						reply.Byte(0)
						return
					}
					reply.Byte(1)
					reply.Bytes0(val)
				})
				me := int(p.Rank())
				want := make(map[int]string)
				got := make(map[int]string)
				for i := 0; i < keys; i++ {
					i := i
					val := fmt.Sprintf("rank%d-key%d", me, i)
					want[i] = val
					m.AsyncInsert(key(i), []byte(val))
					m.AsyncVisitFetch(get, key(i), nil, func(reply []byte) {
						r := codec.NewReader(reply)
						present, _ := r.Byte()
						if present == 0 {
							got[i] = "<missing>"
							return
						}
						val, _ := r.Bytes0()
						got[i] = string(val) // copy: the view dies with the callback
					})
				}
				e.Barrier()
				if len(got) != keys {
					return fmt.Errorf("rank %d: %d of %d fetch callbacks ran", me, len(got), keys)
				}
				for i, g := range got {
					// Another rank may have overwritten the key after our
					// insert, but the value must be *some* rank's write of
					// key i — and read-your-writes means never missing.
					if g == "<missing>" {
						return fmt.Errorf("rank %d: fetch of key %d missed the preceding insert", me, i)
					}
					suffix := fmt.Sprintf("-key%d", i)
					if len(g) < len(suffix) || g[len(g)-len(suffix):] != suffix {
						return fmt.Errorf("rank %d: fetch of key %d returned %q", me, i, g)
					}
				}
				_ = want
				return nil
			})
		})
	}
}

// TestFetchCallbackChainsFetch: a callback that issues a further fetch
// (and a further add) must have its chained work completed within the
// same Barrier, whose one WaitEmpty sees the chained records like any
// other mailbox traffic.
func TestFetchCallbackChainsFetch(t *testing.T) {
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			const depth = 5
			runWorld(t, 2, 2, 22, func(p *transport.Proc) error {
				e := NewEngine(p, v.opt, ygm.WithScheme(machine.NoRoute), ygm.WithCapacity(32))
				c := NewCounter(e, nil)
				count := c.RegisterFetcher(func(c *Counter, k, arg []byte, reply *codec.Writer) {
					reply.Uvarint(c.LocalCount(k))
				})
				done := 0
				var step func(level int)
				step = func(level int) {
					c.AsyncAdd(key(level), 1)
					c.AsyncVisitFetch(count, key(level), nil, func(reply []byte) {
						r := codec.NewReader(reply)
						if got, _ := r.Uvarint(); got == 0 {
							t.Errorf("rank %d: chained fetch at level %d read a zero count", p.Rank(), level)
						}
						if level+1 < depth {
							step(level + 1)
						} else {
							done++
						}
					})
				}
				step(0)
				e.Barrier()
				if done != 1 {
					return fmt.Errorf("rank %d: fetch chain of depth %d did not complete inside Barrier", p.Rank(), depth)
				}
				// Every rank walked the same chain, so each level saw
				// world contributions once quiescent.
				if got, want := c.Size(), uint64(depth); got != want {
					return fmt.Errorf("rank %d: counter size = %d, want %d", p.Rank(), got, want)
				}
				return nil
			})
		})
	}
}

// TestFetchVisitorSpawnsAsyncOps pins the other chaining direction: the
// owner-side fetcher issues fire-and-forget operations while producing
// its reply, and Barrier must drain those too.
func TestFetchVisitorSpawnsAsyncOps(t *testing.T) {
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			runWorld(t, 2, 2, 23, func(p *transport.Proc) error {
				e := NewEngine(p, v.opt, ygm.WithScheme(machine.NLNR), ygm.WithCapacity(32))
				c := NewCounter(e, nil)
				echo := c.RegisterFetcher(func(c *Counter, k, arg []byte, reply *codec.Writer) {
					// Side effect shipped to a (generally) third rank.
					c.AsyncAdd(arg, 1)
					reply.Uvarint(uint64(len(k)))
				})
				const fetches = 40
				ran := 0
				for i := 0; i < fetches; i++ {
					c.AsyncVisitFetch(echo, key(i), key(1000+i), func(reply []byte) { ran++ })
				}
				e.Barrier()
				if ran != fetches {
					return fmt.Errorf("rank %d: %d of %d fetch callbacks ran", p.Rank(), ran, fetches)
				}
				// The side-effect keys must each have world contributions.
				world := uint64(p.WorldSize())
				bad := 0
				c.ForAll(func(k string, count uint64) {
					if count != world {
						bad++
					}
				})
				if bad != 0 {
					return fmt.Errorf("rank %d: %d side-effect keys miscounted", p.Rank(), bad)
				}
				return nil
			})
		})
	}
}

// TestFetchCallbackFillsMailbox: a fetch callback that queues more
// records than the mailbox holds. The callback runs inside Barrier's
// WaitEmpty, so an exchange its inserts start on the round and sync
// mailboxes is one every other rank is already running.
func TestFetchCallbackFillsMailbox(t *testing.T) {
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			const inserts = 16
			runWorld(t, 2, 2, 24, func(p *transport.Proc) error {
				e := NewEngine(p, v.opt, ygm.WithScheme(machine.NoRoute), ygm.WithCapacity(4))
				m := NewMap(e, nil)
				get := m.RegisterFetcher(func(*Map, []byte, []byte, *codec.Writer) {})
				if p.Rank() == 0 {
					var target []byte
					var keys [][]byte
					for i := 0; target == nil || len(keys) < inserts; i++ {
						switch k := key(i); {
						case m.Owner(k) == 0:
						case target == nil:
							target = k
						default:
							keys = append(keys, k)
						}
					}
					m.AsyncVisitFetch(get, target, nil, func([]byte) {
						for _, k := range keys {
							m.AsyncInsert(k, nil)
						}
					})
				}
				if got := m.Size(); got != inserts {
					return fmt.Errorf("rank %d: size = %d, want the %d keys the callback inserted", p.Rank(), got, inserts)
				}
				return nil
			})
		})
	}
}

// TestBarrierInsideHandlerPanics: Barrier, and every query that starts
// with one, waits for the other ranks, so called from a handler or a
// fetch callback it would deadlock the world. Both run inside the
// engine's mailbox handler, so the mailbox's WaitEmpty panics instead,
// and transport.Run reports the panic as the rank's error.
func TestBarrierInsideHandlerPanics(t *testing.T) {
	const want = "ygm: rank 0: WaitEmpty called from inside a handler"
	queries := []struct {
		name string
		call func(c *Counter)
	}{
		{"Barrier", func(c *Counter) { c.e.Barrier() }},
		{"Size", func(c *Counter) { c.Size() }},
		{"TopK", func(c *Counter) { c.TopK(1) }},
		{"ForAll", func(c *Counter) { c.ForAll(func(string, uint64) {}) }},
	}
	for _, q := range queries {
		for _, site := range []string{"callback", "visitor"} {
			q, site := q, site
			t.Run(site+"/"+q.name, func(t *testing.T) {
				_, err := transport.Run(transport.Config{
					Topo:             machine.New(1, 2),
					Model:            netsim.Quartz(),
					Seed:             25,
					WatchdogInterval: 20 * time.Millisecond,
				}, func(p *transport.Proc) error {
					e := NewEngine(p, ygm.WithExchange(ygm.LazyExchange), ygm.WithScheme(machine.NoRoute))
					c := NewCounter(e, nil)
					get := c.RegisterFetcher(func(*Counter, []byte, []byte, *codec.Writer) {})
					visit := c.RegisterVisitor(func(c *Counter, _, _ []byte) { q.call(c) })
					// Rank 0 reaches the query in a callback inside its own
					// Barrier, or in a visitor it runs inside AsyncVisit.
					switch {
					case p.Rank() != 0:
					case site == "callback":
						c.AsyncVisitFetch(get, remoteKeys(c, 1, 1)[0], nil, func([]byte) { q.call(c) })
					default:
						c.AsyncVisit(visit, remoteKeys(c, 0, 1)[0], nil)
					}
					e.Barrier()
					return nil
				})
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("Run error = %v, want the panic %q", err, want)
				}
			})
		}
	}
}
