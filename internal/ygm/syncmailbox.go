package ygm

import (
	"sort"

	"ygm/internal/collective"
	"ygm/internal/machine"
	"ygm/internal/transport"
)

// SyncMailbox is the ALLTOALLV exchange policy over the shared core, the
// variant Section III-A describes: the same routing schemes, but each
// exchange phase is realized as a synchronous collective over the
// phase's communicator (the whole node for local exchanges, the
// core-offset or NLNR-channel group for remote ones). On machines with
// heavily optimized ALLTOALL implementations — the paper names IBM BG/Q
// Sequoia — this traded asynchronicity for better bandwidth utilization.
//
// Unlike Mailbox, Send only queues: nothing moves until every rank calls
// Exchange (a collective), making the programming model bulk-synchronous.
// ExchangeUntilQuiet repeats exchanges until no rank holds undelivered
// records, the synchronous analogue of WaitEmpty (which aliases it for
// the Box interface).
type SyncMailbox struct {
	core

	world *collective.Comm
	// colls holds, parallel to the core's stages, each stage's
	// communicator. It may span more ranks than the stage has partners (it
	// includes this rank, and an NLNR channel includes the ranks on this
	// rank's own side), so member maps each partner buffer to its
	// communicator index.
	colls []stageColl
	// payloads and scratch are the vectors a stage's ALLTOALLV takes,
	// sized for the largest communicator and shared by the stages, which
	// run one at a time; they persist across exchanges, so a steady-state
	// stage allocates nothing.
	payloads [][]byte
	scratch  []*transport.Packet

	// sink adapts this mailbox to collective.BlobSink once, so Exchange
	// does not box a fresh interface value per stage.
	sink syncDispatcher
}

type stageColl struct {
	comm   *collective.Comm
	member []int32 // parallel to the stage's buffers
}

// newSync builds a synchronous mailbox. It is collective: every rank
// must construct one with identical Options before any exchange.
func newSync(p *transport.Proc, handler Handler, opts Options) (*SyncMailbox, error) {
	mb := &SyncMailbox{}
	if err := mb.init(p, mb, handler, opts, true); err != nil {
		return nil, err
	}
	mb.sink.mb = mb
	mb.world = collective.World(p)
	topo := p.Topo()
	me := p.Rank()
	mb.colls = make([]stageColl, len(mb.stages))
	widest := 0
	for s := range mb.stages {
		st, sc := &mb.stages[s], &mb.colls[s]
		var err error
		switch {
		case st.kind == 'a':
			sc.comm = mb.world
		case st.kind == 'l':
			sc.comm, err = collective.New(p, topo.LocalRanks(me))
		case mb.opts.Scheme == machine.NLNR:
			sc.comm, err = collective.New(p, nlnrChannel(topo, me))
		default:
			ranks := make([]machine.Rank, topo.Nodes())
			for n := range ranks {
				ranks[n] = topo.RankOf(n, topo.Core(me))
			}
			sc.comm, err = collective.New(p, ranks)
		}
		if err != nil {
			return nil, err
		}
		sc.member = make([]int32, len(st.cur))
		for j := range sc.comm.Size() {
			if i := int(mb.rt.slotOf(sc.comm.Rank(j))) - int(st.base); i >= 0 && i < len(st.cur) {
				sc.member[i] = int32(j)
			}
		}
		if n := sc.comm.Size(); n > widest {
			widest = n
		}
	}
	mb.payloads = make([][]byte, widest)
	mb.scratch = make([]*transport.Packet, widest)
	return mb, nil
}

// nlnrChannel lists the NLNR channel of rank me = (n,c): it pairs residue
// class (n mod C) at core c with residue class c at core (n mod C); see
// Section III-D. Members reach the same channel from both sides ((l,c)
// and (c,l) name the same set), so the list is sorted to give every
// member an identical communicator order.
func nlnrChannel(topo machine.Topology, me machine.Rank) []machine.Rank {
	l, c := topo.LayerOffset(topo.Node(me)), topo.Core(me)
	var ranks []machine.Rank
	for n := l; n < topo.Nodes(); n += topo.Cores() {
		ranks = append(ranks, topo.RankOf(n, c))
	}
	if l != c { // otherwise both sides are the same set
		for n := c; n < topo.Nodes(); n += topo.Cores() {
			ranks = append(ranks, topo.RankOf(n, l))
		}
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	return ranks
}

// Send queues a point-to-point message. Self-sends deliver immediately;
// nothing else moves before the next Exchange.
func (mb *SyncMailbox) Send(dst machine.Rank, payload []byte) { mb.send(dst, payload) }

// Broadcast queues a broadcast of payload to every other rank along the
// scheme's fan-out; the origin does not deliver to itself.
func (mb *SyncMailbox) Broadcast(payload []byte) { mb.broadcast(payload) }

// Exchange runs one full routing round: every stage of the scheme, each
// as a synchronous collective exchange. It is collective over the whole
// world — all ranks must call it together — and delivers every record
// queued before the call (records spawned by handlers during delivery
// wait for the next Exchange). The coupling of each phase to its slowest
// participant is exactly what the asynchronous Mailbox avoids.
func (mb *SyncMailbox) Exchange() {
	mb.notInHandler("Exchange")
	sp := mb.p.Span("sync.exchange")
	defer sp.End()
	for s := range mb.stages {
		mb.runStage(s)
	}
	mb.promote()
}

// runStage ships stage s's current-generation buffers through one pooled
// Alltoallv over the stage communicator and dispatches what arrives.
func (mb *SyncMailbox) runStage(s int) {
	sp := mb.p.Span(stageSpanName(s))
	defer sp.End()
	mb.inStage = s
	st, sc := &mb.stages[s], &mb.colls[s]
	payloads := mb.payloads[:sc.comm.Size()]
	moved := false
	for i := range st.cur {
		if b := &st.cur[i]; b.count > 0 {
			moved = true
			payloads[sc.member[i]] = mb.take(b)
		}
	}
	if moved {
		mb.stats.Flushes++
	}
	sc.comm.AlltoallvPooled(payloads, mb.scratch, &mb.sink)
	for i := range payloads {
		payloads[i] = nil
	}
}

// syncDispatcher adapts SyncMailbox to collective.BlobSink. It is
// embedded in the mailbox and referenced by pointer, so handing it to
// AlltoallvPooled never allocates.
type syncDispatcher struct{ mb *SyncMailbox }

// VisitBlob dispatches one member's contribution to the running stage.
func (d *syncDispatcher) VisitBlob(srcIndex int, blob []byte) {
	mb := d.mb
	mb.decode(mb.colls[mb.inStage].comm.Rank(srcIndex), blob)
}

// ExchangeUntilQuiet repeats Exchange until no rank holds queued
// records — the bulk-synchronous analogue of WaitEmpty. Collective.
func (mb *SyncMailbox) ExchangeUntilQuiet() {
	mb.notInHandler("ExchangeUntilQuiet")
	for {
		mb.releaseLeak()
		mb.Exchange()
		pending := mb.world.AllreduceU64(
			[]uint64{uint64(mb.queued)}, collective.SumU64)[0]
		if pending == 0 {
			mb.releaseLeak()
			return
		}
	}
}

// WaitEmpty is ExchangeUntilQuiet under the Box interface name.
func (mb *SyncMailbox) WaitEmpty() {
	mb.notInHandler("WaitEmpty")
	mb.ExchangeUntilQuiet()
}
