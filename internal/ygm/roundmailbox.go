package ygm

import (
	"ygm/internal/machine"
	"ygm/internal/transport"
)

// stageSpanNames keeps exchange-stage span names as constants — span
// bracketing must not format strings on the hot path. Three entries
// cover every scheme (NLNR has the most stages).
var stageSpanNames = [...]string{"stage0", "stage1", "stage2"}

func stageSpanName(s int) string {
	if s < len(stageSpanNames) {
		return stageSpanNames[s]
	}
	return "stageN"
}

// TagRound is the base transport tag of round-matched exchange traffic
// (mirrored as transport.TagRound for traffic classification); the
// epoch, stage index, and round number are folded into the tag so
// receives match exactly.
const TagRound = transport.TagRound

// roundTag folds the epoch (completed WaitEmpty count), stage, and round
// into one transport tag, so receives match exactly and — critically —
// a rank still concluding epoch e never consumes or joins traffic of
// epoch e+1 sent by ranks that already observed the termination verdict
// and moved on to the next application phase.
func roundTag(epoch uint64, stage int, round uint64) transport.Tag {
	return TagRound |
		transport.Tag(epoch&0xFFFFF)<<43 |
		transport.Tag(stage&0x7)<<40 |
		transport.Tag(round&0xFFFFFFFFFF)
}

// RoundMailbox is the round-matched exchange policy over the shared
// core, the paper's own protocol (Sections III-A and IV-B): each
// communication context is a *round* in which the rank sends exactly one
// — possibly empty — message to every partner of every exchange stage
// and receives exactly one from each. Rounds let an intermediary bundle
// the records it forwards with the records it originates for the same
// destination in one message (the coalescing the lazy Mailbox cannot do
// across flush boundaries), at the price of coupling: a rank entering a
// round waits for each of its partners to enter it too, and one rank's
// capacity-triggered round transitively obliges the whole (connected)
// channel graph to run a round, empty buffers included — which is
// exactly the "empty message buffers are sent by all ranks" behaviour
// the paper's termination detection keys on.
type RoundMailbox struct {
	core

	round uint64 // next round to execute
	epoch uint64 // completed WaitEmpty cycles

	// tagScratch reuses one slice for the tags WaitEmpty waits on: the
	// next round's stage tags, then TagTerm.
	tagScratch []transport.Tag

	term termDetector
}

// newRound builds a round-matched mailbox. Collective: all ranks must
// construct one with identical Options before exchanging.
func newRound(p *transport.Proc, handler Handler, opts Options) (*RoundMailbox, error) {
	mb := &RoundMailbox{}
	if err := mb.init(p, mb, handler, opts, true); err != nil {
		return nil, err
	}
	mb.tagScratch = make([]transport.Tag, 0, len(mb.stages)+1)
	mb.term.init(p, &mb.stats, mb.opts.Hooks)
	return mb, nil
}

// Send queues a point-to-point message; self-sends deliver immediately.
// Reaching the mailbox capacity triggers a full exchange round.
func (mb *RoundMailbox) Send(dst machine.Rank, payload []byte) {
	if mb.send(dst, payload) {
		mb.maybeRound()
	}
}

// Broadcast queues a broadcast of payload to every other rank along the
// scheme's fan-out; the origin does not deliver to itself.
func (mb *RoundMailbox) Broadcast(payload []byte) {
	mb.broadcast(payload)
	mb.maybeRound()
}

// maybeRound runs exchange rounds while the queue exceeds capacity.
// Sends spawned by handlers inside a round are picked up by the round
// itself.
func (mb *RoundMailbox) maybeRound() {
	if mb.inStage >= 0 {
		return
	}
	for mb.queued >= mb.opts.Capacity {
		mb.executeRound()
	}
	mb.checkCapacityBound()
}

// executeRound performs one full exchange round: for every stage in
// order, send one (possibly empty) message to each partner, then receive
// exactly one from each and process its records. Records forwarded to a
// later stage travel in this same round — the bundling that gives the
// routed schemes their message counts. Non-empty buffers travel as
// pooled packets; empty round messages are nil payloads; received
// packets are recycled once fully dispatched, so a steady-state round
// allocates nothing.
func (mb *RoundMailbox) executeRound() {
	r := mb.round
	mb.round++
	rsp := mb.p.Span("round.exchange")
	sentAny := false
	for s := range mb.stages {
		mb.inStage = s
		ssp := mb.p.Span(stageSpanName(s))
		st := &mb.stages[s]
		tag := roundTag(mb.epoch, s, r)
		for i := range st.cur {
			b := &st.cur[i]
			if b.count > 0 {
				sentAny = true
				mb.p.SendPooled(b.hop, tag, mb.take(b))
			} else {
				mb.stats.EmptyRoundMsgs++
				mb.p.SendPooled(b.hop, tag, nil)
			}
		}
		for range st.cur {
			pkt := mb.p.Recv(tag)
			mb.decode(pkt.Src, pkt.Payload)
			mb.p.Recycle(pkt)
		}
		ssp.End()
	}
	rsp.End()
	mb.promote()
	if sentAny {
		mb.stats.Flushes++
	}
}

// idleTags returns the tags that can move an idle rank: the stage tags
// of the next round, in which a partner may already have sent, followed
// by TagTerm.
func (mb *RoundMailbox) idleTags() []transport.Tag {
	tags := mb.tagScratch[:0]
	for s := range mb.stages {
		tags = append(tags, roundTag(mb.epoch, s, mb.round))
	}
	mb.tagScratch = append(tags, TagTerm)
	return mb.tagScratch
}

// WaitEmpty drives rounds (with empty buffers when this rank has nothing
// to say — the paper's Section IV-B behaviour) until the counting
// consensus observes global quiescence. Collective: every rank must call
// it, and all return together. The mailbox is reusable afterwards.
//
// It is one progress loop: run rounds while records are queued or a
// partner has opened the next round, step the detector, and, while a
// generation is in flight, park until a packet arrives on the next
// round's stage tags or on TagTerm — nothing else can move this rank,
// since nothing is queued.
func (mb *RoundMailbox) WaitEmpty() {
	mb.notInHandler("WaitEmpty")
	sp := mb.p.Span("round.waitempty")
	defer sp.End()
	for {
		mb.releaseLeak()
		for mb.queued > 0 || mb.p.Pending(mb.idleTags()[:len(mb.stages)]...) {
			mb.executeRound()
		}
		if mb.term.step() {
			mb.releaseLeak()
			checkQuiescent(mb.p, mb.queued, "WaitEmpty")
			// Epoch boundary: quiescence means no rounds of this epoch
			// remain in flight, so traffic seen from here on belongs to
			// the next application phase.
			mb.epoch++
			return
		}
		// A generation that completed without a verdict leaves the
		// detector idle: loop to snapshot again at once.
		if mb.term.Busy() {
			mb.p.WaitAny(mb.idleTags()...)
		}
	}
}
