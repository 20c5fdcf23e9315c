package collective

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/transport"
)

// Allreduce is the package's one reduction protocol: a nonblocking,
// node-aware allreduce of a uint64 vector. Step consumes what has arrived
// and returns, so an owner can drive it from its own progress loop (the
// mailbox's termination detector) or wait on its tag (Comm.Barrier,
// AllreduceU64, AllreduceF64).
//
// Members are grouped by node, in member order, and a group's first
// member leads it. In each *generation* a group reduces to its leader up
// a binomial tree; leaders at or above pow, the largest power of two <=
// the group count, fold into leader l-pow; at butterfly step k leader l
// combines with leader l^(1<<k), lower leader's operand first, so every
// leader holds the same bits; the folded leaders are handed them; and
// each leader broadcasts them down its tree. Only leaders cross nodes.
// With one group, or one member per group, it is the plain butterfly.
//
// Init compiles this member's part into a program of sends and receive
// slots. Packets are filed by (generation parity, slot): slot 0 is the
// fold-in, slot k+1 butterfly step k, slot steps+1 the hand-back, slot
// steps+2 the broadcast and slot steps+3+k tree step k. No member can
// finish g+1 without every member's g+1 contribution, so a sender runs at
// most one generation ahead, and each slot has one sender: two rows hold
// everything that can arrive early. A packet is absorbed when its slot is
// consumed, charging its arrival where the protocol needs it.
type Allreduce struct {
	p   *transport.Proc
	tag transport.Tag
	me  int // member index

	prog     []arStep // this member's schedule, in protocol order
	pc       int      // the generation's next step
	recv     uint64   // bit s: this member receives slot s
	consumed uint64   // bit s: slot s of gen is consumed

	gen  uint64 // generation most recently started
	busy bool   // gen is in flight
	op   func(a, b uint64) uint64
	acc  []uint64  // running values; the result once gen completes
	acc2 [2]uint64 // acc's first backing: the detector's width never allocates

	slots [2][]*transport.Packet
	batch []*transport.Packet
	rd    codec.Reader
}

// arStep sends the running values to peer as slot, or receives slot from
// peer and folds it in: own operand first, peer's first, or replaced.
type arStep struct {
	peer       machine.Rank
	slot, kind uint8
}

const arSend, arCombine, arLower, arReplace = 0, 1, 2, 3

// Init readies the machine for member me of members (nil: the world,
// member i being rank i) on the calling rank p and compiles its
// schedule. Every member must Init with the same member order and a tag
// that carries nothing else.
func (a *Allreduce) Init(p *transport.Proc, tag transport.Tag, members []machine.Rank, me int) {
	a.p, a.tag, a.me = p, tag, me
	// This member is position j of group l, which has n members; group(i)
	// is that group's member i and leader(g) leads group g. The world's
	// groups are its nodes, so it needs no lists.
	topo := p.Topo()
	size, c := p.WorldSize(), topo.Cores()
	j, n, l, groups := me%c, c, me/c, topo.Nodes()
	group := func(i int) int { return l*c + i }
	leader := func(g int) int { return g * c }
	if members != nil {
		home, of := topo.Node(members[me]), map[int]int{} // node -> group
		var mine, leads []int
		for i, r := range members {
			if _, ok := of[topo.Node(r)]; !ok {
				of[topo.Node(r)] = len(leads)
				leads = append(leads, i)
			}
			if topo.Node(r) == home {
				mine = append(mine, i)
			}
		}
		size, j, n, l, groups = len(members), slices.Index(mine, me), len(mine), of[home], len(leads)
		group = func(i int) int { return mine[i] }
		leader = func(g int) int { return leads[g] }
	}
	if groups == 1 { // one tree would only add steps: all members lead
		j, n, l, groups = 0, 1, me, size
		leader = func(g int) int { return g }
	}
	// Up the tree: member j takes its children j+2^k, smallest subtree
	// first, up to its lowest set bit k, then sends to its parent j-2^k.
	// A leader at or above pow then folds into leader l-pow, which takes
	// it after its own children; the rest run the butterfly. Down the
	// tree in reverse.
	steps := bits.Len(uint(groups)) - 1
	pow := 1 << steps
	a.prog, a.recv = make([]arStep, 0, 2*bits.Len(uint(n))+2*steps+2), 0
	add := func(peer, slot, kind int) {
		r := machine.Rank(peer)
		if members != nil {
			r = members[peer]
		}
		a.prog = append(a.prog, arStep{r, uint8(slot), uint8(kind)})
		if kind != arSend {
			a.recv |= 1 << slot
		}
	}
	k := 0
	for ; 1<<k < n && j&(1<<k) == 0; k++ {
		if j+1<<k < n {
			add(group(j+1<<k), steps+3+k, arCombine)
		}
	}
	switch {
	case j > 0:
		add(group(j-1<<k), steps+3+k, arSend)
		add(group(j-1<<k), steps+2, arReplace)
	case l >= pow:
		add(leader(l-pow), 0, arSend)
		add(leader(l-pow), steps+1, arReplace)
	default:
		if l+pow < groups {
			add(leader(l+pow), 0, arCombine)
		}
		for s := range steps { // arLower when the peer is the lower leader
			add(leader(l^1<<s), s+1, arSend)
			add(leader(l^1<<s), s+1, arCombine+l>>s&1)
		}
		if l+pow < groups {
			add(leader(l+pow), steps+1, arSend)
		}
	}
	for k--; k >= 0; k-- {
		if j+1<<k < n {
			add(group(j+1<<k), steps+2, arSend)
		}
	}
	a.consumed = a.recv // generation 0 is complete
	a.acc = a.acc2[:0]
	// One array backs both rows and the drain batch, which never holds
	// more than the two rows can.
	w := bits.Len64(a.recv)
	rows := make([]*transport.Packet, 4*w)
	a.slots = [2][]*transport.Packet{rows[:w], rows[w : 2*w]}
	a.batch = rows[2*w : 2*w]
}

// Busy reports whether a generation is in flight.
func (a *Allreduce) Busy() bool { return a.busy }

// Result returns the values of the last completed generation. The slice
// is the machine's own and is overwritten by the next Start.
func (a *Allreduce) Result() []uint64 { return a.acc }

// Start opens the next generation over vals combined with op; Step sends
// what the schedule sends first. Every member must pass a vector of the
// same width; op may be nil when the width is zero (a barrier).
func (a *Allreduce) Start(vals []uint64, op func(a, b uint64) uint64) {
	a.gen++
	a.busy = true
	a.op = op
	a.acc = append(a.acc[:0], vals...)
	a.pc, a.consumed = 0, 0
}

// Step files every arrived packet and, while a generation is in flight,
// runs the schedule as far as arrived packets allow. It reports whether
// this call completed the generation; only a further packet on its tag
// can move a generation that is still in flight.
func (a *Allreduce) Step() bool {
	a.file()
	if !a.busy {
		return false
	}
	row := a.slots[a.gen&1]
	for ; a.pc < len(a.prog); a.pc++ {
		st := a.prog[a.pc]
		if st.kind == arSend {
			a.send(st)
			continue
		}
		pkt := row[st.slot]
		if pkt == nil {
			return false
		}
		row[st.slot] = nil
		a.consumed |= 1 << st.slot
		a.p.Absorb(pkt)
		a.combine(st.kind, pkt)
		a.p.Recycle(pkt)
	}
	a.busy = false
	return true
}

// combine folds a received packet into the running values as kind says.
// The header, checked when filed, is the slot byte and the current
// generation.
func (a *Allreduce) combine(kind uint8, pkt *transport.Packet) {
	a.rd.Reset(pkt.Payload[1+codec.UvarintLen(a.gen):])
	for i := range a.acc {
		v, err := a.rd.Uvarint()
		switch {
		case err != nil:
			panic(fmt.Sprintf("collective: rank %d short allreduce packet from %d", a.p.Rank(), pkt.Src))
		case kind == arReplace:
			a.acc[i] = v
		case kind == arLower:
			a.acc[i] = a.op(v, a.acc[i])
		default:
			a.acc[i] = a.op(a.acc[i], v)
		}
	}
	if a.rd.Remaining() != 0 {
		panic(fmt.Sprintf("collective: rank %d long allreduce packet from %d", a.p.Rank(), pkt.Src))
	}
}

func (a *Allreduce) send(st arStep) {
	n := 1 + codec.UvarintLen(a.gen)
	for _, v := range a.acc {
		n += codec.UvarintLen(v)
	}
	buf := binary.AppendUvarint(append(a.p.AcquireBuf(n)[:0], st.slot), a.gen)
	for _, v := range a.acc {
		buf = binary.AppendUvarint(buf, v)
	}
	a.p.SendPooled(st.peer, a.tag, buf)
}

// file moves every arrived packet into its (generation parity, slot).
// A packet that cannot belong there is a protocol bug and panics rather
// than be filed over live state.
func (a *Allreduce) file() {
	a.batch = a.p.DrainBatch(a.tag, a.batch[:0])
	for i, pkt := range a.batch {
		a.batch[i] = nil
		a.rd.Reset(pkt.Payload)
		slot, err0 := a.rd.Byte()
		gen, err1 := a.rd.Uvarint()
		var bad string
		switch {
		case err0 != nil || err1 != nil:
			bad = "corrupt header"
		case a.recv>>slot&1 == 0:
			bad = "no such slot"
		case gen < a.gen:
			bad = "stale"
		case gen > a.gen+1:
			bad = "too early"
		case gen == a.gen && a.consumed>>slot&1 != 0:
			bad = "already consumed"
		case a.slots[gen&1][slot] != nil:
			bad = "duplicate"
		}
		if bad != "" {
			panic(fmt.Sprintf("collective: rank %d (member %d, generation %d) got slot %d of generation %d from %d: %s",
				a.p.Rank(), a.me, a.gen, slot, gen, pkt.Src, bad))
		}
		a.slots[gen&1][slot] = pkt
	}
}
