package collective

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/transport"
)

// TestAllreduceRejectsImpossiblePackets: each (generation parity, slot)
// has one sender and a partner runs at most one generation ahead, so a
// packet of an older generation, one two generations ahead, a second
// packet for a filled slot, one for a slot already consumed, or one for
// a slot this member never receives is a protocol bug and must panic
// rather than be filed over live state. Each case runs one Barrier (the
// machine's generation 1) and then forges packets to itself on the
// communicator's stream.
func TestAllreduceRejectsImpossiblePackets(t *testing.T) {
	for _, tc := range []struct {
		name    string
		world   int
		members []machine.Rank // nil: the world
		forger  machine.Rank
		packets [][2]uint64 // (slot, generation)
		want    string
	}{
		// Member 0 of 3 takes member 2's fold-in (slot 0) and runs one
		// butterfly step (slot 1); slot 2 is the hand-back to member 2.
		{"stale", 3, nil, 0, [][2]uint64{{0, 0}}, "stale"},
		{"too early", 3, nil, 0, [][2]uint64{{0, 3}}, "too early"},
		{"duplicate", 3, nil, 0, [][2]uint64{{0, 2}, {0, 2}}, "duplicate"},
		{"already consumed", 3, nil, 0, [][2]uint64{{1, 1}}, "already consumed"},
		{"no such slot", 3, nil, 0, [][2]uint64{{2, 2}}, "no such slot"},
		// Rank 0 is member 2 here, the folded member: it receives only
		// the hand-back, slot 2. As member 0 it would take slot 1.
		{"member order is not rank order", 4, []machine.Rank{3, 1, 0}, 0, [][2]uint64{{2, 2}, {1, 2}}, "member 2, generation 1) got slot 1 of generation 2 from 0: no such slot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := transport.Run(transport.Config{
				Topo:  machine.New(tc.world, 1),
				Model: netsim.Quartz(),
				Seed:  1,
			}, func(p *transport.Proc) error {
				members := tc.members
				if members == nil {
					for r := range p.WorldSize() {
						members = append(members, machine.Rank(r))
					}
				}
				c, err := New(p, members)
				if err != nil {
					return nil // not a member
				}
				c.Barrier()
				if p.Rank() != tc.forger {
					return nil
				}
				for _, pk := range tc.packets {
					w := codec.NewWriter(8)
					w.Byte(byte(pk[0]))
					w.Uvarint(pk[1])
					p.Send(p.Rank(), c.ar.tag, w.Bytes())
				}
				c.ar.Step()
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want a panic mentioning %q, got %v", tc.want, err)
			}
		})
	}
}

// TestAllreduceEverySize: the butterfly has three kinds of member —
// inside the largest power of two, folded into it, and taking a fold —
// and every size from 1 to 17 mixes them differently. Each size runs on
// the world and on a sub-communicator of a one-larger world whose member
// order is a permutation of rank order, on both in-process wires. Every
// member must get the same U64 Sum/Max/Min, a bit-identical F64 sum of
// values whose magnitudes make the sum depend on combination order, and
// the right results from five back-to-back Barrier/Allreduce pairs
// behind a 20x straggler, which leaves a partner one generation ahead:
// its packets must wait in the other parity row, not be taken as this
// generation's.
func TestAllreduceEverySize(t *testing.T) {
	wires := []struct {
		name string
		wire transport.Wire
	}{{"sim", nil}, {"local", transport.LocalWire{}}}
	for _, tw := range wires {
		for size := 1; size <= 17; size++ {
			for _, sub := range []bool{false, true} {
				name := fmt.Sprintf("%s/world/%d", tw.name, size)
				if sub {
					name = fmt.Sprintf("%s/sub/%d", tw.name, size)
				}
				t.Run(name, func(t *testing.T) {
					testAllreduceSize(t, tw.wire, size, sub)
				})
			}
		}
	}
}

func testAllreduceSize(t *testing.T, wire transport.Wire, size int, sub bool) {
	members := make([]machine.Rank, size)
	for i := range members {
		members[i] = machine.Rank(i)
	}
	world := size
	if sub {
		world = size + 1
		for i, r := range rand.New(rand.NewSource(int64(size))).Perm(size) {
			members[i] = machine.Rank(r + 1) // rank 0 stays out
		}
	}
	u := func(i int) uint64 { return uint64(i*7919%101 + 3) }
	f := func(i int) float64 { return float64(1-2*(i%2))*float64(i%3)*1e16*(1+float64(i)/7) + 0.37*float64(i) }
	var wantSum, wantMax, wantMin uint64 = 0, 0, math.MaxUint64
	var serial float64
	for i := 0; i < size; i++ {
		wantSum += u(i)
		wantMax = max(wantMax, u(i))
		wantMin = min(wantMin, u(i))
		serial += f(i)
	}
	straggler := members[0]
	f64 := make([]uint64, size)
	_, err := transport.Run(transport.Config{
		Topo:  machine.New(world, 1),
		Model: netsim.Quartz(),
		Seed:  int64(size),
		Wire:  wire,
		ComputeScale: func(r machine.Rank) float64 {
			if r == straggler {
				return 20
			}
			return 1
		},
	}, func(p *transport.Proc) error {
		c, err := New(p, members)
		if err != nil {
			return nil // not a member
		}
		me := c.Index()
		for _, tc := range []struct {
			op   func(a, b uint64) uint64
			want [2]uint64
		}{{SumU64, [2]uint64{wantSum, uint64(size)}}, {MaxU64, [2]uint64{wantMax, 1}}, {MinU64, [2]uint64{wantMin, 1}}} {
			if got := c.AllreduceU64([]uint64{u(me), 1}, tc.op); [2]uint64(got) != tc.want {
				return fmt.Errorf("member %d: allreduce %v, want %v", me, got, tc.want)
			}
		}
		f64[me] = math.Float64bits(c.AllreduceF64([]float64{f(me)}, SumF64)[0])
		for it := 0; it < 5; it++ {
			p.Compute(1e-4)
			c.Barrier()
			p.Compute(1e-4)
			got := c.AllreduceU64([]uint64{uint64(it*size + me)}, SumU64)[0]
			if want := uint64(it*size*size + size*(size-1)/2); got != want {
				return fmt.Errorf("member %d pair %d: allreduce %d, want %d", me, it, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range f64 {
		if b != f64[0] {
			t.Fatalf("member %d holds F64 sum %v, member 0 holds %v", i, math.Float64frombits(b), math.Float64frombits(f64[0]))
		}
	}
	if got := math.Float64frombits(f64[0]); math.Abs(got-serial) > 1e3 {
		t.Fatalf("F64 sum %v, serial sum %v", got, serial)
	}
}
