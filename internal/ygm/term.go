package ygm

import (
	"fmt"
	"math/bits"

	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/obs"
	"ygm/internal/transport"
)

// TagTerm is the transport tag reserved for termination-detection
// traffic.
const TagTerm transport.Tag = 2

// termDetector implements the counting-consensus termination detection
// of Section IV-B as a nonblocking state machine: step consumes what has
// arrived and returns, so one progress loop can serve detection and data
// traffic together (WaitEmpty), poll between units of external work
// (TestEmpty, the HavoqGT pattern) or interleave with exchange rounds.
//
// Each detection *generation* is a recursive-doubling allreduce of the
// global (HopsSent, HopsRecv) counters: at step k a rank swaps running
// sums with rank me^(1<<k), so after log2(P) steps every rank holds the
// same totals. Ranks at or above the largest power of two fold their
// snapshot into rank me-pow beforehand and are handed the totals
// afterwards. Every rank then evaluates the same verdict — quiescence
// when the totals balance and equal the previous generation's, Mattern's
// four-counter condition, sound because every snapshot of one generation
// causally follows every snapshot of the one before. There is no root
// and nothing to broadcast.
//
// The previous totals and this rank's previous snapshot survive a
// verdict (they start at zero, the counters of a world that has not
// sent): when the first generation of a new cycle reads the last
// quiescent totals again, no rank has sent since a known-quiet instant,
// and an idle WaitEmpty costs one generation.
type termDetector struct {
	p     *transport.Proc
	stats *Stats
	// hooks carries the mutation-test fault injection points (nil in
	// production); only ForceVerdict applies here.
	hooks *TestHooks

	me, pow, rem int // rank; largest power of two <= P; P - pow
	steps        int // log2(pow) butterfly steps

	gen  uint64 // generation most recently started
	busy bool   // gen is in flight
	// wait is the slot the generation consumes next, last the final one
	// this rank needs: slot 0 carries the fold-in from rank me+pow, slot
	// k+1 the step-k sums from rank me^(1<<k), slot steps+1 the totals
	// handed back to a folded rank.
	wait, last int

	sumS, sumR   uint64 // running sums; the totals once gen completes
	mineS, mineR uint64 // this rank's snapshot for gen
	prevS, prevR uint64 // totals of the generation before gen
	still        bool   // the snapshot equals this rank's previous one

	// slots files packets by (generation parity, slot). A partner runs at
	// most one generation ahead — it cannot finish gen+1 without this
	// rank's gen+1 packet — and each slot has one sender, so two rows
	// hold everything that can arrive early.
	slots [2][]termSlot
	batch []*transport.Packet

	// scratch is the reusable encoder for outgoing termination packets.
	// Encoded bytes are copied into pooled payload buffers before
	// sending (payload ownership transfers on Send), so one scratch
	// writer serves every generation without per-send allocation.
	scratch codec.Writer

	// gens mirrors Stats.Generations into the rank's metric registry.
	gens *obs.Counter
}

// termSlot is one filed termination packet. The packet itself is kept
// until the state machine consumes the slot and absorbed only then: its
// arrival is charged to the rank's clock where the protocol depends on
// it, not where the host happened to deliver it.
type termSlot struct {
	pkt  *transport.Packet
	s, r uint64
}

func (td *termDetector) init(p *transport.Proc, stats *Stats, hooks *TestHooks) {
	td.p, td.stats, td.hooks = p, stats, hooks
	td.me = int(p.Rank())
	td.steps = bits.Len(uint(p.WorldSize())) - 1
	td.pow = 1 << td.steps
	td.rem = p.WorldSize() - td.pow
	td.last = td.steps
	if td.me >= td.pow {
		td.last = td.steps + 1
	}
	for i := range td.slots {
		td.slots[i] = make([]termSlot, td.steps+2)
	}
	td.gens = p.Metrics().Counter("term.generations")
}

// hold reports whether the generation in flight may be the final one:
// the previous totals balanced and this rank's counters had not moved
// between its last two snapshots. Only then can a peer already hold a
// quiescence verdict and be sending next-phase data, so exactly then the
// mailbox must leave its data stream alone until the verdict is in; in
// every other state no rank can conclude and arrived data is of this
// phase.
func (td *termDetector) hold() bool {
	return td.busy && td.still && td.prevS == td.prevR
}

// start snapshots this rank's counters and opens the next generation.
func (td *termDetector) start() {
	td.gen++
	td.stats.Generations++
	td.gens.Inc()
	td.p.Mark("term.gen", td.gen)
	s, r := td.stats.HopsSent, td.stats.HopsRecv
	td.still = s == td.mineS && r == td.mineR
	td.mineS, td.mineR = s, r
	td.sumS, td.sumR = s, r
	td.busy = true
	switch {
	case td.me >= td.pow:
		td.send(td.me-td.pow, 0)
		td.wait = td.last
	case td.me < td.rem:
		td.wait = 0
	default:
		td.wait = 1
		td.forward(0)
	}
}

// forward sends the running sums on once slot has been added in: to the
// next butterfly partner, or after the last step to the rank that folded
// in.
func (td *termDetector) forward(slot int) {
	switch {
	case slot < td.steps:
		td.send(td.me^1<<slot, slot+1)
	case td.me < td.rem:
		td.send(td.me+td.pow, td.steps+1)
	}
}

func (td *termDetector) send(to, slot int) {
	td.scratch.Reset()
	td.scratch.Byte(byte(slot))
	td.scratch.Uvarint(td.gen)
	td.scratch.Uvarint(td.sumS)
	td.scratch.Uvarint(td.sumR)
	buf := td.p.AcquireBuf(td.scratch.Len())
	copy(buf, td.scratch.Bytes())
	td.p.SendPooled(machine.Rank(to), TagTerm, buf)
}

// step makes nonblocking progress: it opens a generation if none is in
// flight, files the termination packets that have arrived and consumes
// slots in protocol order as far as they go. It returns true exactly
// when a generation completed with a global-quiescence verdict. After a
// completed generation — either verdict — busy is false and the next
// call snapshots afresh, so the caller can drain data in between; while
// busy, only a further TagTerm packet can move it.
func (td *termDetector) step() bool {
	if !td.busy {
		td.start()
	}
	td.file()
	row := td.slots[td.gen&1]
	for ; td.wait <= td.last; td.wait++ {
		sl := &row[td.wait]
		if sl.pkt == nil {
			return false
		}
		td.p.Absorb(sl.pkt)
		td.p.Recycle(sl.pkt)
		sl.pkt = nil
		if td.wait > td.steps {
			td.sumS, td.sumR = sl.s, sl.r
		} else {
			td.sumS += sl.s
			td.sumR += sl.r
		}
		td.forward(td.wait)
	}
	td.busy = false
	return td.verdict()
}

// file moves every arrived termination packet into its slot.
func (td *termDetector) file() {
	td.batch = td.p.DrainBatch(TagTerm, td.batch[:0])
	for i, pkt := range td.batch {
		td.batch[i] = nil
		r := codec.NewReader(pkt.Payload)
		slot, err0 := r.Byte()
		gen, err1 := r.Uvarint()
		s, err2 := r.Uvarint()
		rr, err3 := r.Uvarint()
		if err0 != nil || err1 != nil || err2 != nil || err3 != nil || int(slot) > td.steps+1 {
			panic(fmt.Sprintf("ygm: rank %d corrupt termination packet from %d", td.me, pkt.Src))
		}
		sl := &td.slots[gen&1][slot]
		if (gen != td.gen && gen != td.gen+1) || sl.pkt != nil || (gen == td.gen && int(slot) < td.wait) {
			panic(fmt.Sprintf("ygm: rank %d in generation %d got slot %d of generation %d from %d (stale, too early or duplicate)",
				td.me, td.gen, slot, gen, pkt.Src))
		}
		*sl = termSlot{pkt: pkt, s: s, r: rr}
	}
}

// verdict evaluates the termination condition on the completed
// generation's totals; every rank holds the same ones.
func (td *termDetector) verdict() bool {
	balanced := td.sumS == td.sumR
	unchanged := td.sumS == td.prevS && td.sumR == td.prevR
	td.prevS, td.prevR = td.sumS, td.sumR
	done := balanced && unchanged
	if td.hooks != nil && td.hooks.ForceVerdict != nil {
		done = td.hooks.ForceVerdict(balanced, unchanged)
	}
	td.checkVerdictBalanced(done)
	return done
}
