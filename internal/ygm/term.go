package ygm

import (
	"fmt"

	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/obs"
	"ygm/internal/transport"
)

// TagTerm is the transport tag reserved for termination-detection
// traffic.
const TagTerm transport.Tag = 2

// termDetector implements the counting-consensus termination detection
// of Section IV-B as an incremental state machine, so that TestEmpty can
// make progress without blocking (the HavoqGT polling pattern) while
// WaitEmpty drives the same machine with blocking receives.
//
// Each detection *generation* is a binomial-tree reduction of the global
// (HopsSent, HopsRecv) counters to rank 0 followed by a binomial
// broadcast of the verdict. Rank 0 declares quiescence when the counters
// balance and are unchanged from the previous generation — Mattern's
// four-counter condition, which tolerates messages observed in flight
// across unsynchronized counter snapshots.
type termDetector struct {
	p     *transport.Proc
	stats *Stats

	gen      uint64
	phase    termPhase
	got      int    // children contributions received this generation
	accS     uint64 // accumulated subtree sent count
	accR     uint64 // accumulated subtree recv count
	prevS    uint64 // previous generation's global sent count (rank 0)
	prevR    uint64
	havePrev bool

	children []int // world-rank children in the binomial tree (root 0)
	parent   int   // world-rank parent, -1 for rank 0

	// hooks carries the mutation-test fault injection points (nil in
	// production); only ForceVerdict applies here.
	hooks *TestHooks

	// pending buffers contributions/verdicts that physically arrived
	// ahead of this rank's progress through their generation.
	pendingContrib map[uint64][][2]uint64
	pendingVerdict map[uint64]bool

	// scratch is the reusable encoder for outgoing termination packets.
	// Encoded bytes are copied into pooled payload buffers before
	// sending (payload ownership transfers on Send), so one scratch
	// writer serves every generation without per-send allocation.
	scratch codec.Writer

	// gens mirrors Stats.Generations into the rank's metric registry.
	gens *obs.Counter
}

type termPhase int

const (
	termCollect      termPhase = iota // gathering children contributions
	termAwaitVerdict                  // contribution sent, waiting on verdict
)

func (td *termDetector) init(p *transport.Proc, stats *Stats, hooks *TestHooks) {
	td.p = p
	td.stats = stats
	td.hooks = hooks
	size := p.WorldSize()
	me := int(p.Rank())
	td.parent = -1
	for mask := 1; mask < size; mask <<= 1 {
		if me&mask == 0 {
			if me|mask < size {
				td.children = append(td.children, me|mask)
			}
		} else {
			td.parent = me &^ mask
			break
		}
	}
	td.pendingContrib = make(map[uint64][][2]uint64)
	td.pendingVerdict = make(map[uint64]bool)
	td.gens = p.Metrics().Counter("term.generations")
	td.startGeneration()
}

// reset prepares the detector for the next WaitEmpty/TestEmpty cycle
// after a generation concluded with a positive verdict.
func (td *termDetector) reset() {
	td.phase = termCollect
	td.havePrev = false
	td.startGeneration()
}

func (td *termDetector) startGeneration() {
	td.gen++
	td.stats.Generations++
	td.gens.Inc()
	td.p.Mark("term.gen", td.gen)
	td.phase = termCollect
	td.got = 0
	td.accS = 0
	td.accR = 0
	// Generations are adopted only by exact match against td.gen, and
	// td.gen is monotonic across cycles, so buffered state for older
	// generations is dead — it accumulates across WaitEmpty cycles (e.g.
	// after forced verdicts or peer-failure unwinds) unless purged here.
	for g := range td.pendingContrib {
		if g < td.gen {
			delete(td.pendingContrib, g)
		}
	}
	for g := range td.pendingVerdict {
		if g < td.gen {
			delete(td.pendingVerdict, g)
		}
	}
	// Adopt any contributions that raced ahead of us.
	if early, ok := td.pendingContrib[td.gen]; ok {
		for _, c := range early {
			td.accS += c[0]
			td.accR += c[1]
			td.got++
		}
		delete(td.pendingContrib, td.gen)
	}
}

// step advances the state machine through at most one complete
// generation. With block=true it blocks on needed packets until the
// current generation's verdict is known; with block=false it consumes
// whatever has arrived and returns early. It returns true exactly when a
// generation concluded with a global-quiescence verdict; a false verdict
// also returns (with the next generation started) so that the caller can
// drain data traffic between generations.
func (td *termDetector) step(block bool) bool {
	for {
		switch td.phase {
		case termCollect:
			if td.got < len(td.children) {
				if !td.absorb(block) {
					return false
				}
				continue
			}
			// All children in: add own counters and escalate.
			td.accS += td.stats.HopsSent
			td.accR += td.stats.HopsRecv
			if td.parent < 0 {
				done := td.verdict()
				td.relayVerdict(done)
				if done {
					return true
				}
				td.startGeneration()
				return false
			}
			td.scratch.Reset()
			td.scratch.Byte(0) // contribution
			td.scratch.Uvarint(td.gen)
			td.scratch.Uvarint(td.accS)
			td.scratch.Uvarint(td.accR)
			buf := td.p.AcquireBuf(td.scratch.Len())
			copy(buf, td.scratch.Bytes())
			td.p.SendPooled(machine.Rank(td.parent), TagTerm, buf)
			td.phase = termAwaitVerdict
		case termAwaitVerdict:
			if done, ok := td.pendingVerdict[td.gen]; ok {
				delete(td.pendingVerdict, td.gen)
				td.relayVerdict(done)
				if done {
					return true
				}
				td.startGeneration()
				return false
			}
			if !td.absorb(block) {
				return false
			}
		}
	}
}

// verdict evaluates rank 0's termination condition for the accumulated
// global counters of this generation.
func (td *termDetector) verdict() bool {
	balanced := td.accS == td.accR
	unchanged := td.havePrev && td.accS == td.prevS && td.accR == td.prevR
	td.prevS, td.prevR = td.accS, td.accR
	td.havePrev = true
	done := balanced && unchanged
	if td.hooks != nil && td.hooks.ForceVerdict != nil {
		done = td.hooks.ForceVerdict(balanced, unchanged)
	}
	td.checkVerdictBalanced(done)
	return done
}

// relayVerdict forwards the verdict for the current generation down the
// binomial broadcast tree: encoded once into the scratch writer, copied
// into a pooled payload per child.
func (td *termDetector) relayVerdict(done bool) {
	if len(td.children) == 0 {
		return
	}
	td.scratch.Reset()
	td.scratch.Byte(1) // verdict
	td.scratch.Uvarint(td.gen)
	flag := byte(0)
	if done {
		flag = 1
	}
	td.scratch.Byte(flag)
	for _, child := range td.children {
		buf := td.p.AcquireBuf(td.scratch.Len())
		copy(buf, td.scratch.Bytes())
		td.p.SendPooled(machine.Rank(child), TagTerm, buf)
	}
}

// absorb consumes one termination packet, buffering it under its
// generation. Returns false when nothing is available and block is
// false.
func (td *termDetector) absorb(block bool) bool {
	var pkt *transport.Packet
	if block {
		pkt = td.p.Recv(TagTerm)
	} else {
		pkt = td.p.Drain(TagTerm)
		if pkt == nil {
			return false
		}
	}
	r := codec.NewReader(pkt.Payload)
	typ, err1 := r.Byte()
	gen, err2 := r.Uvarint()
	if err1 != nil || err2 != nil {
		panic(fmt.Sprintf("ygm: corrupt termination packet: %v %v", err1, err2))
	}
	switch typ {
	case 0: // contribution
		s, err1 := r.Uvarint()
		rr, err2 := r.Uvarint()
		if err1 != nil || err2 != nil {
			panic("ygm: corrupt termination contribution")
		}
		if gen == td.gen && td.phase == termCollect {
			td.accS += s
			td.accR += rr
			td.got++
		} else {
			td.pendingContrib[gen] = append(td.pendingContrib[gen], [2]uint64{s, rr})
		}
	case 1: // verdict
		flag, err := r.Byte()
		if err != nil {
			panic("ygm: corrupt termination verdict")
		}
		td.pendingVerdict[gen] = flag == 1
	default:
		panic(fmt.Sprintf("ygm: unknown termination packet type %d", typ))
	}
	// Every field has been decoded into detector state; the pooled
	// payload can go back to the transport pool.
	td.p.Recycle(pkt)
	return true
}
