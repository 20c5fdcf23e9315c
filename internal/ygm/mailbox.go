package ygm

import (
	"fmt"

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
	// buffered, receives are opportunistic, and termination is purely
	// the counting consensus. Strictly more asynchronous; supports
	// TestEmpty polling.
	LazyExchange
	// SyncExchange realizes every exchange phase as a synchronous
	// ALLTOALLV collective (Section III-A's bulk-synchronous variant).
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
	// including intermediary forwarding (the termination counters).
	HopsSent uint64
	HopsRecv uint64
	// Generations counts termination-detection rounds (diagnostic).
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

// Mailbox is the lazy exchange policy over the shared core: a full queue
// opens a communication context that flushes every non-empty buffer and
// works off whatever has arrived, receives are opportunistic, nothing is
// round-matched, and WaitEmpty waits for the counting consensus alone.
// Being free of collective exchanges, it is the one variant that can
// also poll for quiescence without blocking (TestEmpty).
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
	mb := &Mailbox{}
	if err := mb.init(p, mb, handler, opts, false); err != nil {
		return nil, err
	}
	m := p.Metrics()
	mb.cFlushCapacity = m.Counter("ygm.flush.capacity")
	mb.cFlushForward = m.Counter("ygm.flush.forward")
	mb.cFlushDrain = m.Counter("ygm.flush.drain")
	mb.cFlushExplicit = m.Counter("ygm.flush.explicit")
	mb.term.init(&mb.core, nil)
	return mb, nil
}

// Send queues a point-to-point message for dst. If dst is the calling
// rank the message is delivered synchronously. Queueing may trigger a
// communication context (flush plus opportunistic receive) when the
// mailbox reaches capacity.
func (mb *Mailbox) Send(dst machine.Rank, payload []byte) {
	if mb.send(dst, payload) {
		mb.afterQueue()
	}
}

// Broadcast queues a broadcast of payload to every other rank along the
// scheme's fan-out; the origin does not deliver to itself.
func (mb *Mailbox) Broadcast(payload []byte) {
	mb.broadcast(payload)
	mb.afterQueue()
}

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
	pkt := mb.p.Poll(transport.TagData)
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
		mb.p.SendPooled(b.hop, transport.TagData, mb.take(b))
	}
	mb.active = mb.active[:0]
	mb.stats.Flushes++
	if mb.queued != 0 {
		panic("ygm: queued-record accounting out of balance")
	}
}

// processPacket dispatches every record in pkt, recycles the packet,
// then flushes the forwards the records generated if they fill the
// mailbox.
func (mb *Mailbox) processPacket(pkt *transport.Packet) {
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
// flushing the forwards each wave generates, so multi-hop routes
// pipeline wave by wave instead of buffering a whole drain. It never
// nests: only generation reaches it, and generation refuses to run
// inside a handler.
func (mb *Mailbox) drainWaves() {
	for {
		batch := mb.p.DrainBatch(transport.TagData, mb.drainScratch[:0])
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
	}
}

// generation drains, then advances termination detection as far as the
// arrived packets allow, and reports whether a generation established
// global quiescence. While the generation in flight may be the final one
// (term.hold) a peer may already be past the verdict, so what sits in
// the data stream may belong to the next phase and stays there; sends a
// poller queued since its snapshot are still flushed.
func (mb *Mailbox) generation(site string) bool {
	mb.notInHandler(site)
	if mb.term.hold() {
		mb.flushAll()
	} else {
		mb.drainAvailable()
	}
	if !mb.term.step() {
		return false
	}
	mb.releaseLeak()
	checkQuiescent(mb.p, mb.queued, site)
	return true
}

// WaitEmpty flushes pending buffers and blocks until every rank's
// mailbox is globally quiet: all buffers flushed, all record hops
// received, and no new activity between two consecutive global counts
// (Section IV-B). It is a collective operation: every rank must call it,
// and all ranks return during the same detection generation. The mailbox
// remains usable afterwards.
//
// It is one progress loop: drain data, step the detector, then block
// until a packet arrives on either stream, so multi-hop forwards keep
// moving while a generation is in flight — except under term.hold, when
// only the verdict can move this rank.
func (mb *Mailbox) WaitEmpty() {
	sp := mb.p.Span("lazy.waitempty")
	defer sp.End()
	for !mb.generation("WaitEmpty") {
		switch {
		case !mb.term.Busy():
			// A generation just completed without quiescence: drain and
			// snapshot again at once.
		case mb.term.hold():
			mb.p.WaitAny(TagTerm)
		default:
			mb.p.WaitAny(TagTerm, transport.TagData)
		}
	}
}

// TestEmpty makes nonblocking progress on termination detection and
// reports whether global quiescence has been established. Callers that
// maintain external work queues (the HavoqGT pattern) call it in a loop,
// interleaving their own work; every rank observes true for the same
// generation, and a call that returns true has delivered nothing after
// the snapshot that generation counted, so work a handler queues never
// coincides with a true result. The mailbox can be reused afterwards.
// Only the lazy policy offers it: round-matched and collective exchanges
// cannot progress unilaterally.
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
	mb.cFlushExplicit.Inc()
	mb.enterCommContext()
}
