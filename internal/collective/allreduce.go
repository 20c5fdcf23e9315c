package collective

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/transport"
)

// Allreduce is the package's one reduction protocol: a nonblocking
// recursive-doubling (butterfly) allreduce of a uint64 vector. Step
// consumes what has arrived and returns, so an owner can drive it from
// its own progress loop (the mailbox's termination detector) or wait on
// its tag (Comm.Barrier, AllreduceU64, AllreduceF64).
//
// In each *generation* members at or above pow, the largest power of two
// <= size, fold their vector into member me-pow; then at step k member me
// combines with member me^(1<<k), lower member's operand first, so after
// log2(pow) steps every member holds the same bits; the folded members
// are handed the result. Packets are filed by (generation parity, slot):
// slot 0 is the fold-in, slot k+1 step k, slot steps+1 the hand-back. A
// partner runs at most one generation ahead — it cannot finish g+1
// without this member's g+1 packet — and each slot has one sender, so two
// rows hold everything that can arrive early. A packet is absorbed when
// its slot is consumed, charging its arrival where the protocol needs it.
type Allreduce struct {
	p       *transport.Proc
	tag     transport.Tag
	members []machine.Rank // member -> rank; nil: member i is rank i

	me, pow, rem      int // member index; largest power of two <= size; size - pow
	steps             int // log2(pow) butterfly steps
	first, last, wait int // slots this member receives, in order; the next one

	gen  uint64 // generation most recently started
	busy bool   // gen is in flight
	op   func(a, b uint64) uint64
	acc  []uint64  // running values; the result once gen completes
	acc2 [2]uint64 // acc's first backing: the detector's width never allocates

	slots [2][]*transport.Packet
	batch []*transport.Packet
	rd    codec.Reader
}

// Init readies the machine for member me of members (nil: the world,
// member i being rank i) on the calling rank p. Every member must Init
// with the same member order and a tag that carries nothing else.
func (a *Allreduce) Init(p *transport.Proc, tag transport.Tag, members []machine.Rank, me int) {
	size := len(members)
	if members == nil {
		size = p.WorldSize()
	}
	a.p, a.tag, a.members, a.me = p, tag, members, me
	a.steps = bits.Len(uint(size)) - 1
	a.pow = 1 << a.steps
	a.rem = size - a.pow
	a.first, a.last = 1, a.steps
	switch {
	case me >= a.pow:
		a.first, a.last = a.steps+1, a.steps+1
	case me < a.rem:
		a.first = 0
	}
	a.wait = a.last + 1 // generation 0 is complete
	a.acc = a.acc2[:0]
	// One array backs both rows and the drain batch, which never holds
	// more than the two rows can.
	n := a.steps + 2
	rows := make([]*transport.Packet, 4*n)
	a.slots = [2][]*transport.Packet{rows[:n], rows[n : 2*n]}
	a.batch = rows[2*n : 2*n]
}

// Busy reports whether a generation is in flight.
func (a *Allreduce) Busy() bool { return a.busy }

// Result returns the values of the last completed generation. The slice
// is the machine's own and is overwritten by the next Start.
func (a *Allreduce) Result() []uint64 { return a.acc }

// Start opens the next generation over vals combined with op. Every
// member must pass a vector of the same width; op may be nil when the
// width is zero (a barrier).
func (a *Allreduce) Start(vals []uint64, op func(a, b uint64) uint64) {
	a.gen++
	a.busy = true
	a.op = op
	a.acc = append(a.acc[:0], vals...)
	a.wait = a.first
	switch {
	case a.me >= a.pow:
		a.send(a.me-a.pow, 0)
	case a.me >= a.rem:
		a.forward(0) // no fold-in to wait for
	}
}

// Step files every arrived packet and, while a generation is in flight,
// consumes slots in protocol order as far as they go. It reports whether
// this call completed the generation; only a further packet on its tag can
// move a generation that is still in flight.
func (a *Allreduce) Step() bool {
	a.file()
	if !a.busy {
		return false
	}
	row := a.slots[a.gen&1]
	for ; a.wait <= a.last; a.wait++ {
		pkt := row[a.wait]
		if pkt == nil {
			return false
		}
		row[a.wait] = nil
		a.p.Absorb(pkt)
		a.combine(a.wait, pkt)
		a.p.Recycle(pkt)
		a.forward(a.wait)
	}
	a.busy = false
	return true
}

// combine adds slot's packet into the running values, lower member's
// operand first; the hand-back slot replaces them. The header, checked
// when filed, is the slot byte and the current generation.
func (a *Allreduce) combine(slot int, pkt *transport.Packet) {
	a.rd.Reset(pkt.Payload[1+codec.UvarintLen(a.gen):])
	lowerFirst := slot > 0 && slot <= a.steps && a.me&(1<<(slot-1)) != 0
	for i := range a.acc {
		v, err := a.rd.Uvarint()
		switch {
		case err != nil:
			panic(fmt.Sprintf("collective: rank %d short allreduce packet from %d", a.p.Rank(), pkt.Src))
		case slot > a.steps:
			a.acc[i] = v
		case lowerFirst:
			a.acc[i] = a.op(v, a.acc[i])
		default:
			a.acc[i] = a.op(a.acc[i], v)
		}
	}
	if a.rd.Remaining() != 0 {
		panic(fmt.Sprintf("collective: rank %d long allreduce packet from %d", a.p.Rank(), pkt.Src))
	}
}

// forward sends the running values on once slot has been combined: to
// the next butterfly partner, or after the last step to the member that
// folded in.
func (a *Allreduce) forward(slot int) {
	switch {
	case slot < a.steps:
		a.send(a.me^1<<slot, slot+1)
	case a.me < a.rem:
		a.send(a.me+a.pow, a.steps+1)
	}
}

func (a *Allreduce) send(to, slot int) {
	n := 1 + codec.UvarintLen(a.gen)
	for _, v := range a.acc {
		n += codec.UvarintLen(v)
	}
	buf := binary.AppendUvarint(append(a.p.AcquireBuf(n)[:0], byte(slot)), a.gen)
	for _, v := range a.acc {
		buf = binary.AppendUvarint(buf, v)
	}
	dst := machine.Rank(to)
	if a.members != nil {
		dst = a.members[to]
	}
	a.p.SendPooled(dst, a.tag, buf)
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
		s := int(slot)
		var bad string
		switch {
		case err0 != nil || err1 != nil:
			bad = "corrupt header"
		case s < a.first || s > a.last:
			bad = "no such slot"
		case gen < a.gen:
			bad = "stale"
		case gen > a.gen+1:
			bad = "too early"
		case gen == a.gen && s < a.wait:
			bad = "already consumed"
		case a.slots[gen&1][s] != nil:
			bad = "duplicate"
		}
		if bad != "" {
			panic(fmt.Sprintf("collective: rank %d (member %d, generation %d) got slot %d of generation %d from %d: %s",
				a.p.Rank(), a.me, a.gen, slot, gen, pkt.Src, bad))
		}
		a.slots[gen&1][s] = pkt
	}
}
