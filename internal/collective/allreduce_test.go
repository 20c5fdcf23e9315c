package collective

import (
	"fmt"
	"math"
	"math/bits"
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
		topo    machine.Topology
		members []machine.Rank // nil: the world
		forger  machine.Rank
		packets [][2]uint64 // (slot, generation)
		want    string
	}{
		// Member 0 of 3 takes member 2's fold-in (slot 0) and runs one
		// butterfly step (slot 1); slot 2 is the hand-back to member 2.
		{"stale", machine.New(3, 1), nil, 0, [][2]uint64{{0, 0}}, "stale"},
		{"too early", machine.New(3, 1), nil, 0, [][2]uint64{{0, 3}}, "too early"},
		{"duplicate", machine.New(3, 1), nil, 0, [][2]uint64{{0, 2}, {0, 2}}, "duplicate"},
		{"already consumed", machine.New(3, 1), nil, 0, [][2]uint64{{1, 1}}, "already consumed"},
		{"no such slot", machine.New(3, 1), nil, 0, [][2]uint64{{2, 2}}, "no such slot"},
		// Rank 0 is member 2 here, the folded member: it receives only
		// the hand-back, slot 2. As member 0 it would take slot 1.
		{"member order is not rank order", machine.New(4, 1), []machine.Rank{3, 1, 0}, 0, [][2]uint64{{2, 2}, {1, 2}}, "member 2, generation 1) got slot 1 of generation 2 from 0: no such slot"},
		// On 2 nodes of 2 cores member 0 leads node 0: it takes its leaf
		// up the tree (slot 4) and runs one butterfly step (slot 1); slot 3
		// is the broadcast down to a leaf.
		{"2x2 stale", machine.New(2, 2), nil, 0, [][2]uint64{{4, 0}}, "stale"},
		{"2x2 too early", machine.New(2, 2), nil, 0, [][2]uint64{{4, 3}}, "too early"},
		{"2x2 duplicate", machine.New(2, 2), nil, 0, [][2]uint64{{4, 2}, {4, 2}}, "duplicate"},
		{"2x2 already consumed", machine.New(2, 2), nil, 0, [][2]uint64{{4, 1}}, "already consumed"},
		{"2x2 no such slot", machine.New(2, 2), nil, 0, [][2]uint64{{3, 2}}, "no such slot"},
		// Rank 1 is a leaf: it receives only the broadcast, slot 3.
		{"2x2 leaf", machine.New(2, 2), nil, 1, [][2]uint64{{3, 2}, {4, 2}}, "member 1, generation 1) got slot 4 of generation 2 from 1: no such slot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := transport.Run(transport.Config{
				Topo:  tc.topo,
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
					p.SendPooled(p.Rank(), c.ar.tag, w.Bytes())
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
	for _, tw := range allreduceWires {
		for size := 1; size <= 17; size++ {
			t.Run(fmt.Sprintf("%s/world/%d", tw.name, size), func(t *testing.T) {
				testAllreduce(t, tw.wire, machine.New(size, 1), false)
			})
			t.Run(fmt.Sprintf("%s/sub/%d", tw.name, size), func(t *testing.T) {
				testAllreduce(t, tw.wire, machine.New(size+1, 1), true)
			})
		}
	}
}

// TestAllreduceNodeShapes runs TestAllreduceEverySize's checks on
// several cores per node, where members are grouped by node: single-node
// worlds and one core per node keep the plain butterfly, and the rest
// mix tree depths, leaders inside, folded into and taking a fold of the
// leaders' butterfly. A shuffled sub-communicator of all ranks but rank 0
// groups members by node in member order, with uneven groups.
func TestAllreduceNodeShapes(t *testing.T) {
	shapes := [][2]int{{9, 1}, {2, 2}, {3, 5}, {5, 3}, {6, 6}, {64, 32}}
	for cores := 1; cores <= 9; cores++ {
		shapes = append(shapes, [2]int{1, cores})
	}
	for _, tw := range allreduceWires {
		for _, sh := range shapes {
			if sh[0]*sh[1] > 64 && tw.wire != nil {
				continue // 2,048 ranks: the simulator only
			}
			for _, sub := range []bool{false, true} {
				if sub && sh[0]*sh[1] == 1 {
					continue // no rank but 0 to form it
				}
				t.Run(fmt.Sprintf("%s/%dx%d/sub=%v", tw.name, sh[0], sh[1], sub), func(t *testing.T) {
					testAllreduce(t, tw.wire, machine.New(sh[0], sh[1]), sub)
				})
			}
		}
	}
}

// TestAllreducePacketsPerGeneration pins what one generation sends. On
// several cores per node a group reduces to its leader and is broadcast
// back (2(C-1) packets per node, all on-node) and only the N leaders run
// the butterfly; a single-node world and one core per node send what the
// plain butterfly sends, pow*log2(pow) + 2*(size-pow) packets.
func TestAllreducePacketsPerGeneration(t *testing.T) {
	butterfly := func(size int) uint64 {
		steps := bits.Len(uint(size)) - 1
		return uint64((1<<steps)*steps + 2*(size-1<<steps))
	}
	for _, tc := range []struct {
		nodes, cores  int
		total, remote uint64
	}{
		{64, 32, 4352, 384}, // the butterfly: 22,528 and 12,288
		{2, 2, 6, 2},        // the butterfly: 8 and 4
		{3, 5, 3*8 + 4, 4},
		{1, 6, butterfly(6), 0},
		{1, 32, butterfly(32), 0},
		{6, 1, butterfly(6), butterfly(6)},
		{2, 1, butterfly(2), butterfly(2)},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.nodes, tc.cores), func(t *testing.T) {
			rep := runWorld(t, tc.nodes, tc.cores, func(p *transport.Proc, c *Comm) error {
				c.Barrier()
				return nil
			})
			tot := rep.Totals()
			if got := tot.LocalMsgs + tot.RemoteMsgs; got != tc.total || tot.RemoteMsgs != tc.remote {
				t.Fatalf("one generation sent %d packets, %d remote; want %d, %d remote", got, tot.RemoteMsgs, tc.total, tc.remote)
			}
		})
	}
}

var allreduceWires = []struct {
	name string
	wire transport.Wire
}{{"sim", nil}, {"local", transport.LocalWire{}}}

// testAllreduce runs the checks of TestAllreduceEverySize on topo: over
// the world, or over a sub-communicator of every rank but 0 in shuffled
// member order.
func testAllreduce(t *testing.T, wire transport.Wire, topo machine.Topology, sub bool) {
	size := topo.WorldSize()
	var members []machine.Rank // nil: World
	if sub {
		size--
		for _, r := range rand.New(rand.NewSource(int64(size))).Perm(size) {
			members = append(members, machine.Rank(r+1)) // rank 0 stays out
		}
	}
	u := func(i int) uint64 { return uint64(i*7919%101 + 3) }
	f := func(i int) float64 { return float64(1-2*(i%2))*float64(i%3)*1e16*(1+float64(i)/7) + 0.37*float64(i) }
	var wantSum, wantMax, wantMin uint64 = 0, 0, math.MaxUint64
	var serial, magnitude float64
	for i := 0; i < size; i++ {
		wantSum += u(i)
		wantMax = max(wantMax, u(i))
		wantMin = min(wantMin, u(i))
		serial += f(i)
		magnitude += math.Abs(f(i))
	}
	straggler := machine.Rank(0)
	if sub {
		straggler = members[0]
	}
	f64 := make([]uint64, size)
	_, err := transport.Run(transport.Config{
		Topo:  topo,
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
		c := World(p)
		if sub {
			var err error
			if c, err = New(p, members); err != nil {
				return nil // not a member
			}
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
	// Any summation order lands within the serial sum's own error bound,
	// size·ε·Σ|x|, of it; 1e3 is looser on the sizes up to 17.
	if got := math.Float64frombits(f64[0]); math.Abs(got-serial) > max(1e3, float64(size)*magnitude*0x1p-52) {
		t.Fatalf("F64 sum %v, serial sum %v", got, serial)
	}
}
