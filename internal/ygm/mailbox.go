package ygm

import (
	"encoding/binary"
	"fmt"

	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/obs"
	"ygm/internal/transport"
)

// Sender is the messaging surface exposed to receive callbacks: all
// three exchange policies implement it, so application handlers work
// unchanged on any exchange style.
type Sender interface {
	// Send queues a point-to-point message for dst.
	Send(dst machine.Rank, payload []byte)
	// Broadcast queues a broadcast to every other rank.
	Broadcast(payload []byte)
}

// Handler is a mailbox receive callback, invoked once per delivered
// message. Handlers may call s.Send and s.Broadcast (data-dependent
// message spawning, as in graph traversals) but must not call WaitEmpty,
// TestEmpty, or Exchange (each panics if they do), and must not retain
// the payload slice — delivery buffers are pooled and recycled once the
// packet is fully dispatched. Handlers that must keep payloads copy
// them.
type Handler func(s Sender, payload []byte)

// ExchangeStyle selects how a mailbox realizes the paper's exchanges.
type ExchangeStyle int

const (
	// RoundExchange is the paper's protocol: each communication context
	// is a round of one (possibly empty) message per exchange partner
	// per stage, letting forwards coalesce with direct traffic. The
	// production-faithful default.
	RoundExchange ExchangeStyle = iota
	// LazyExchange never round-matches: flushes send whatever is
	// buffered, receives are opportunistic, and termination is one
	// barrier joined once every packet sent is acknowledged. Strictly
	// more asynchronous; supports TestEmpty polling.
	LazyExchange
	// SyncExchange is Section III-A's bulk-synchronous variant: the
	// round protocol, each stage an ALLTOALLV among its partners, run
	// only at explicit, collective Exchange calls and in WaitEmpty.
	SyncExchange
)

// String names the exchange style.
func (e ExchangeStyle) String() string {
	switch e {
	case RoundExchange:
		return "round"
	case LazyExchange:
		return "lazy"
	case SyncExchange:
		return "sync"
	}
	return fmt.Sprintf("ExchangeStyle(%d)", int(e))
}

// Options configures a mailbox. Applications compose Option values
// (WithScheme, WithCapacity, ...) instead of assembling this struct;
// it remains exported as the configuration record those options fill in.
type Options struct {
	// Scheme selects the routing protocol. Default NoRoute.
	Scheme machine.Scheme
	// Capacity is the number of queued records that triggers a flush of
	// all coalescing buffers — the paper's "mailbox size" (its
	// experiments fix 2^18). Default 1024.
	Capacity int
	// Exchange selects the exchange semantics. Default RoundExchange.
	Exchange ExchangeStyle
	// Tap, when non-nil, observes every record queued for an exchange
	// (oracle instrumentation; see Tap). Nil in production.
	Tap Tap
	// Hooks, when non-nil, inject deliberate faults for the mutation
	// smoke tests (see TestHooks). Nil in production.
	Hooks *TestHooks
}

// Box is the mailbox surface the applications program against: queue
// messages, then wait for global quiescence. All three exchange styles
// satisfy it. Polling for quiescence without blocking is a capability of
// the lazy style alone, so TestEmpty is a method of *Mailbox, not of Box.
type Box interface {
	Sender
	// WaitEmpty blocks until global quiescence. Collective.
	WaitEmpty()
	// Stats returns the mailbox counters.
	Stats() Stats
	// PendingSends reports records queued but not yet exchanged.
	PendingSends() int
	// Proc exposes the transport endpoint the mailbox runs on, so
	// layers above (collective communicators, like the one the
	// container engine reduces Size and TopK over) can share it without
	// threading it separately.
	Proc() *transport.Proc
}

var (
	_ Box = (*Mailbox)(nil)
	_ Box = (*RoundMailbox)(nil)
	_ Box = (*SyncMailbox)(nil)
)

func (o Options) withDefaults() Options {
	if o.Capacity <= 0 {
		o.Capacity = 1024
	}
	return o
}

// Stats counts mailbox-level activity for one rank.
type Stats struct {
	// Sends is the number of application point-to-point messages queued.
	Sends uint64
	// Broadcasts is the number of Broadcast calls.
	Broadcasts uint64
	// Delivered is the number of messages handed to the callback.
	Delivered uint64
	// Flushes counts communication-context entries that sent at least
	// one packet.
	Flushes uint64
	// HopsSent / HopsRecv count record transmissions and receptions,
	// including intermediary forwarding.
	HopsSent uint64
	HopsRecv uint64
	// Generations counts termination-detection generations: one per
	// quiescence cycle on the lazy policy (diagnostic).
	Generations uint64
	// EmptyRoundMsgs counts the empty exchange messages the
	// round-matched protocol sends when a rank has nothing for a partner
	// — the "empty buffers" Section IV-B's termination detection keys
	// on. Always zero for the lazy mailbox.
	EmptyRoundMsgs uint64
}

// pollEvery is how many Sends pass between the lazy mailbox's
// opportunistic polls of the inbox.
const pollEvery = 8

// TagAck is the transport tag of the lazy mailbox's acknowledgements:
// a 4-byte little-endian count of processed data packets, to their
// source.
const TagAck transport.Tag = 4

// Mailbox is the lazy exchange policy over the shared core: a full queue
// opens a communication context that flushes every non-empty buffer and
// works off whatever has arrived, receives are opportunistic, and
// nothing is round-matched. Being free of collective exchanges, it is
// the one variant that can also poll for quiescence without blocking
// (TestEmpty).
//
// Termination is Dijkstra–Scholten detection closed by one nonblocking
// barrier per quiescence epoch, as in the NBX exchange (Hoefler et al.,
// PPoPP 2010). Every processed data packet owes its source one
// acknowledgement, and a rank's deficit is the number of packets it sent
// that are not yet acknowledged. A rank is quiet at a wait point where
// its deficit is 0 and it has queued and processed nothing since the
// previous one. A quiet rank joins the epoch's barrier — one zero-width
// generation of the termination detector — and keeps draining while the
// barrier is in flight. A packet processed by a rank that has joined and
// is idle engages it: the packet's source becomes its parent, whose
// acknowledgement waits until the rank is quiet again, so what its
// handlers or its application send meanwhile is still this epoch's work.
// Every other packet is acknowledged at the rank's next wait point, one
// TagAck packet per source and drain wave, so nothing is sent per packet
// while the application sends. Unacknowledged work is thus always owned
// by a rank that has not joined, directly or through a chain of parents,
// and the barrier's completion — every rank joined — is the verdict. An
// epoch's data travels on its own tag (the two alternate), so what a
// rank already past the verdict sends waits under the next epoch's tag,
// and what the application sends while its rank has joined and is not
// engaged belongs to the next epoch and is held back until the verdict.
//
// It is confined to its rank's goroutine. All ranks of the world must
// construct their mailbox with identical Options; WaitEmpty is a
// collective operation.
type Mailbox struct {
	core

	// drainScratch is the reusable packet batch for drainAvailable.
	drainScratch []*transport.Packet

	sinceLastPoll int
	// processing counts packets currently being handled (a depth, not a
	// flag: a handler that calls Flush processes packets inside the one
	// being handled).
	processing int

	// data is this epoch's data tag; joined says this rank has joined
	// the epoch's barrier.
	data   transport.Tag
	joined bool
	// act is Sends+Broadcasts+HopsRecv at the previous pass: a rank that
	// queued or processed messages since then is not quiet.
	act uint64
	// deficit counts data packets sent and not yet acknowledged.
	deficit uint64
	// parent is the hop whose packet engaged this rank, nil when idle.
	parent *hopBuf
	// owing lists the hops with owed acknowledgements, each once.
	owing []*hopBuf
	// held queues, encoded as records, the nheld sends the application
	// made while joined and not engaged, for the next epoch.
	held  codec.Writer
	nheld int

	// Flush-cause counters, resolved once from the rank's metric
	// registry: what drove each communication context — capacity
	// overflow on the send path, forward overflow while dispatching,
	// the pre-termination drain, or an explicit Flush call.
	cFlushCapacity *obs.Counter
	cFlushForward  *obs.Counter
	cFlushDrain    *obs.Counter
	cFlushExplicit *obs.Counter

	term termDetector
}

// newLazy creates a lazy-exchange mailbox on rank p. A lazy flush moves
// whatever is queued, so one stage with one buffer generation carries
// every hop.
func newLazy(p *transport.Proc, handler Handler, opts Options) (*Mailbox, error) {
	mb := &Mailbox{data: transport.TagData}
	if err := mb.init(p, mb, handler, opts, false); err != nil {
		return nil, err
	}
	m := p.Metrics()
	mb.cFlushCapacity = m.Counter("ygm.flush.capacity")
	mb.cFlushForward = m.Counter("ygm.flush.forward")
	mb.cFlushDrain = m.Counter("ygm.flush.drain")
	mb.cFlushExplicit = m.Counter("ygm.flush.explicit")
	mb.owing = make([]*hopBuf, 0, len(mb.stages[0].cur))
	mb.term.init(&mb.core, nil)
	return mb, nil
}

// Send queues a point-to-point message for dst. If dst is the calling
// rank the message is delivered synchronously. Queueing may trigger a
// communication context (flush plus opportunistic receive) when the
// mailbox reaches capacity.
func (mb *Mailbox) Send(dst machine.Rank, payload []byte) {
	if (mb.joined || mb.nheld > 0) && mb.hold(kindUnicast, dst, payload) {
		return
	}
	if mb.send(dst, payload) {
		mb.afterQueue()
	}
}

// Broadcast queues a broadcast of payload to every other rank along the
// scheme's fan-out; the origin does not deliver to itself.
func (mb *Mailbox) Broadcast(payload []byte) {
	if !mb.hold(kindBcastDeliver, machine.Nil, payload) {
		mb.broadcast(payload)
		mb.afterQueue()
	}
}

// hold keeps a send the application makes while this rank has joined
// the barrier and is not engaged for the next epoch, and reports whether
// it did; past the verdict it first queues what it held. An engaged
// rank's withheld parent acknowledgement keeps the epoch open for its
// sends, and handlers only run engaged.
func (mb *Mailbox) hold(kind recordKind, dst machine.Rank, payload []byte) bool {
	if mb.joined && mb.parent == nil && mb.depth == 0 {
		appendRecord(&mb.held, kind, dst, payload)
		mb.nheld++
		return true
	}
	mb.release()
	return false
}

// release queues, in order, the sends held through the last verdict.
// Every entry point of the mailbox calls it before anything else, so the
// held sends are the first of the new epoch and none of their deliveries
// happens inside the call that reached the verdict.
func (mb *Mailbox) release() {
	if mb.joined || mb.nheld == 0 {
		return
	}
	held := mb.held.Bytes()
	mb.held.Reset() // nothing appends while the rank has not joined
	mb.nheld = 0
	for r := codec.NewReader(held); r.Remaining() > 0; {
		rec, _ := parseRecord(r, mb.p.WorldSize()) // hold encoded it in this process
		if rec.kind == kindUnicast {
			mb.Send(rec.dst, rec.payload)
		} else {
			mb.Broadcast(rec.payload)
		}
	}
}

// PendingSends reports the records queued but not yet sent, including
// the sends held for the next epoch.
func (mb *Mailbox) PendingSends() int { return mb.queued + mb.nheld }

// afterQueue runs the capacity check and opportunistic poll that follow
// any application-level queueing operation.
func (mb *Mailbox) afterQueue() {
	if mb.processing > 0 {
		// Forwards spawned while handling a packet are flushed by the
		// caller once the whole packet is processed.
		return
	}
	if mb.queued >= mb.opts.Capacity {
		mb.cFlushCapacity.Inc()
		mb.enterCommContext()
	} else {
		mb.sinceLastPoll++
		if mb.sinceLastPoll >= pollEvery {
			mb.sinceLastPoll = 0
			for mb.pollOnce() {
			}
		}
	}
	mb.checkCapacityBound()
}

// enterCommContext is the paper's "mailbox full" behaviour: flush all
// buffers, then process every message that has (virtually) arrived —
// which may enqueue forwards, which are flushed in turn.
func (mb *Mailbox) enterCommContext() {
	sp := mb.p.Span("lazy.commctx")
	mb.flushAll()
	for mb.pollOnce() {
		if mb.queued >= mb.opts.Capacity {
			mb.flushAll()
		}
	}
	mb.flushAll()
	sp.End()
}

// pollOnce processes at most one arrived data packet without waiting.
// It reports whether a packet was processed.
func (mb *Mailbox) pollOnce() bool {
	pkt := mb.p.Poll(mb.data)
	if pkt == nil {
		return false
	}
	mb.processPacket(pkt)
	return true
}

// flushAll sends every non-empty coalescing buffer to its hop rank.
// Buffers are sent in first-use order; each becomes one pooled transport
// packet whose payload returns to the pool at the receiver.
func (mb *Mailbox) flushAll() {
	if mb.queued == 0 {
		return
	}
	for _, b := range mb.active {
		mb.p.SendPooled(b.hop, mb.data, mb.take(b))
	}
	mb.deficit += uint64(len(mb.active))
	mb.active = mb.active[:0]
	mb.stats.Flushes++
	if mb.queued != 0 {
		panic("ygm: queued-record accounting out of balance")
	}
}

// processPacket dispatches every record in pkt, recycles the packet,
// then flushes the forwards the records generated if they fill the
// mailbox. The packet engages a rank that joined the barrier and is
// idle; any other owes its acknowledgement at the next wait point.
func (mb *Mailbox) processPacket(pkt *transport.Packet) {
	if b := &mb.stages[0].cur[mb.rt.slotOf(pkt.Src)]; mb.joined && mb.parent == nil {
		mb.parent = b
	} else {
		mb.owe(b)
	}
	mb.processing++
	mb.decode(pkt.Src, pkt.Payload)
	mb.processing--
	mb.p.Recycle(pkt)
	if mb.queued >= mb.opts.Capacity {
		mb.cFlushForward.Inc()
		mb.flushAll()
	}
}

// drainAvailable flushes pending buffers, then processes every
// physically present data packet (fast-forwarding the virtual clock to
// arrivals), then flushes any forwards the processing spawned. The
// pending-tail flush comes FIRST — Section IV-B's "YGM flushes its
// pending send buffers" on entering termination — so tail packets carry
// the clock of the rank's own work, not of whatever arrivals it happened
// to absorb first (which would serialize ranks into a virtual-time
// ratchet).
func (mb *Mailbox) drainAvailable() {
	sp := mb.p.Span("lazy.drain")
	defer sp.End()
	mb.releaseLeak()
	mb.cFlushDrain.Inc()
	mb.flushAll()
	mb.drainWaves()
}

// drainWaves processes arrived packets in waves — each wave is the set
// physically present right now, batched out of the inbox in one pass —
// flushing the forwards and acknowledging the packets of each wave, so
// multi-hop routes pipeline wave by wave instead of buffering a whole
// drain, and an acknowledgement carries the clock of its own wave, not
// of the last one. It never nests: only generation reaches it, and
// generation refuses to run inside a handler.
func (mb *Mailbox) drainWaves() {
	for {
		batch := mb.p.DrainBatch(mb.data, mb.drainScratch[:0])
		mb.drainScratch = batch
		if len(batch) == 0 {
			return
		}
		for i, pkt := range batch {
			mb.p.Absorb(pkt)
			mb.processPacket(pkt)
			batch[i] = nil
		}
		mb.flushAll()
		mb.sendAcks()
	}
}

// owe records one acknowledgement owed to the hop b.
func (mb *Mailbox) owe(b *hopBuf) {
	if b.owed == 0 {
		mb.owing = append(mb.owing, b)
	}
	b.owed++
}

// acknowledge takes in the acknowledgements that have arrived.
func (mb *Mailbox) acknowledge() {
	batch := mb.p.DrainBatch(TagAck, mb.drainScratch[:0])
	mb.drainScratch = batch
	for _, pkt := range batch {
		mb.p.Absorb(pkt)
		n, err := ackCount(pkt.Payload, mb.deficit)
		if err != nil {
			panic(fmt.Sprintf("ygm: rank %d corrupt acknowledgement from %d: %v", mb.me, pkt.Src, err))
		}
		mb.deficit -= n
		mb.p.Recycle(pkt)
	}
}

// ackCount decodes one TagAck payload: a 4-byte count of packets, which
// settles only packets the rank sent and that are not yet acknowledged.
func ackCount(b []byte, deficit uint64) (uint64, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("acknowledgement of %d bytes, want 4", len(b))
	}
	n := uint64(binary.LittleEndian.Uint32(b))
	if n > deficit {
		return 0, fmt.Errorf("acknowledgement of %d packets with a deficit of %d", n, deficit)
	}
	return n, nil
}

// sendAcks sends every owed acknowledgement, one packet per hop.
func (mb *Mailbox) sendAcks() {
	for _, b := range mb.owing {
		mb.p.SendPooled(b.hop, TagAck, binary.LittleEndian.AppendUint32(mb.p.AcquireBuf(4)[:0], b.owed))
		b.owed = 0
	}
	mb.owing = mb.owing[:0]
}

// generation is one pass of the lazy progress loop: drain data, take in
// acknowledgements, release the parent or join the epoch's barrier if
// this rank is quiet, send what is owed, and step the barrier. It reports whether the barrier completed: the verdict,
// after which the rank is in the next epoch.
func (mb *Mailbox) generation(site string) bool {
	mb.notInHandler(site)
	mb.release()
	mb.drainAvailable()
	mb.acknowledge()
	act := mb.stats.Sends + mb.stats.Broadcasts + mb.stats.HopsRecv
	quiet := act == mb.act && mb.deficit == 0 && !mb.leakHeld
	mb.act = act
	if quiet && mb.parent != nil {
		mb.owe(mb.parent)
		mb.parent = nil
	}
	mb.sendAcks()
	if !mb.joined && mb.opts.forceVerdict(quiet) {
		mb.joined = true
		mb.term.start(nil, nil)
	}
	if !mb.term.Step() {
		return false
	}
	mb.checkVerdict(site)
	mb.joined = false
	mb.data ^= transport.TagData ^ transport.TagDataOdd
	mb.releaseLeak()
	return true
}

// WaitEmpty flushes pending buffers and blocks until every rank's
// mailbox is globally quiet: every packet sent has been processed and
// acknowledged and every rank has joined the epoch's barrier (Section
// IV-B). It is a collective operation: every rank must call it, and all
// ranks return on the same barrier. The mailbox remains usable
// afterwards.
//
// It is one progress loop: drain data, settle acknowledgements, step
// the barrier, then block until a packet arrives on this epoch's data
// tag, TagAck or TagTerm, so multi-hop forwards keep moving while the
// barrier is in flight.
func (mb *Mailbox) WaitEmpty() {
	sp := mb.p.Span("lazy.waitempty")
	defer sp.End()
	for !mb.generation("WaitEmpty") {
		// A rank that may be quiet on the next pass takes it at once.
		if (mb.deficit > 0 || mb.joined && mb.parent == nil) && !mb.leakHeld {
			mb.p.WaitAny(TagTerm, mb.data, TagAck)
		}
	}
}

// TestEmpty makes nonblocking progress on termination detection and
// reports whether global quiescence has been established. Callers that
// maintain external work queues (the HavoqGT pattern) call it in a loop,
// interleaving their own work; every rank observes true on the same
// barrier. A rank joins the barrier at a quiet call: everything it sent
// has been acknowledged, and since the previous call it processed no
// message and the application queued nothing. A message that reaches a
// rank that has joined draws it back into the phase until the next
// quiet call. So a call that returns true has delivered nothing, and
// work a handler queues stays in the current phase as long as the
// application sends it before its next call. A Send or Broadcast the
// application makes after a quiet call, before a message reaches the
// rank again, belongs to the next phase: it is held back (PendingSends
// counts it) until the application's next call into the mailbox after
// the verdict. The mailbox can be reused afterwards.
// Only the lazy policy offers it: round-matched and bulk-synchronous
// exchanges cannot progress unilaterally.
//
// TestEmpty never blocks, so a loop that polls it must give way when it
// has nothing else to do: call p.AbortIfPeerFailed() and p.Yield() on
// every pass that returned false. On a simulated wire every world runs
// under the M:N scheduler, and a poller that spins without Yield holds
// its worker token; once the pollers hold every token, the ranks they
// wait for never run and the world hangs. A spinning poller is not
// blocked, so the deadlock watchdog cannot end such a hang either.
func (mb *Mailbox) TestEmpty() bool { return mb.generation("TestEmpty") }

// Flush forces the communication context to run even if the mailbox is
// below capacity (exposed for tests and latency-sensitive callers).
func (mb *Mailbox) Flush() {
	mb.release()
	mb.cFlushExplicit.Inc()
	mb.enterCommContext()
}
