package ygm

import (
	"errors"
	"fmt"

	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/transport"
)

// core is the one mailbox the three exchange variants share (Sections
// III and IV of the paper): routing, broadcast fan-out, placement of
// records into per-partner coalescing buffers, the packet decode loop,
// dispatch, and delivery. Mailbox, RoundMailbox and SyncMailbox embed it
// and add only an exchange policy — when a full queue triggers an
// exchange, how staged buffers move, and what WaitEmpty waits for. The
// core never asks which policy it serves: a policy drives it by setting
// inStage around each exchange phase and calling take, decode and
// promote.
type core struct {
	p       *transport.Proc
	me      machine.Rank
	opts    Options
	handler Handler
	// self is the mailbox embedding this core — the Sender handlers are
	// handed, so sends they spawn pass through the policy's trigger.
	self  Sender
	stats Stats
	// cost caches the model scalars charged per dispatched record.
	cost recordCost
	// rt finds a hop's slot in the hop universe; each stage's buffers
	// cover a contiguous slot range.
	rt         hopRouter
	stages     []stage // stageStore[:n]
	stageStore [maxStages]stage
	// inStage is the stage currently exchanging, -1 outside a staged
	// exchange: records placed meanwhile ride a later stage of the same
	// exchange if one can carry them, the next exchange otherwise.
	inStage int
	// queued counts records placed but not yet taken, in every stage and
	// generation.
	queued int
	// active lists the buffers that took a first record since the last
	// exchange, in first-use order. The lazy flush walks it, so a flush
	// costs O(non-empty buffers) in a deterministic order; staged
	// exchanges visit every partner anyway and only truncate it.
	active []*hopBuf

	// leakStash holds the one delivery claimed by the LeakDelivery
	// mutation hook until the policy's next pass of its quiescence loop
	// releases it. Always empty outside mutation smoke tests.
	leakStash []byte
	leakHeld  bool

	// depth counts the handler calls in progress on this rank (a handler
	// that self-sends nests one), so it is nonzero exactly while a
	// receive callback runs.
	depth int
}

// init builds the shared state on rank p for the mailbox self. A staged
// policy exchanges one scheme phase at a time (rounds, collectives) and
// gets the scheme's stages with two buffer generations; an unstaged one
// gets a single stage that carries every hop.
func (c *core) init(p *transport.Proc, self Sender, handler Handler, opts Options, staged bool) error {
	if handler == nil {
		return errors.New("ygm: nil handler")
	}
	c.p, c.me, c.self, c.handler = p, p.Rank(), self, handler
	c.opts = opts.withDefaults()
	c.cost = newRecordCost(p.Model())
	c.inStage = -1
	return c.initSlots(staged)
}

// Proc exposes the transport endpoint the mailbox runs on.
func (c *core) Proc() *transport.Proc { return c.p }

// Stats returns a copy of the mailbox counters.
func (c *core) Stats() Stats { return c.stats }

// PendingSends reports records queued but not yet exchanged.
func (c *core) PendingSends() int { return c.queued }

// send is Send without the policy's trigger: validate, count, deliver a
// self-send on the spot or route and queue anything else. It reports
// whether a record was queued.
func (c *core) send(dst machine.Rank, payload []byte) bool {
	if !c.p.Topo().Valid(dst) {
		panic(fmt.Sprintf("ygm: send to invalid rank %d", dst))
	}
	c.stats.Sends++
	if dst == c.me {
		c.deliver(payload)
		return false
	}
	c.place(c.rt.route(c.rt.hooked(dst)), kindUnicast, dst, payload)
	return true
}

// broadcast queues payload for every other rank by the scheme-specific
// fan-out of Section III (NodeRemote and NLNR use N-1 remote messages;
// NodeLocal uses C*(N-1); NoRoute sends individual copies). The origin
// does not deliver to itself.
func (c *core) broadcast(payload []byte) {
	c.stats.Broadcasts++
	switch c.opts.Scheme {
	case machine.NoRoute:
		for r := machine.Rank(0); int(r) < c.p.WorldSize(); r++ {
			if r != c.me {
				c.place(c.rt.slotOf(r), kindUnicast, r, payload)
			}
		}
	case machine.NodeLocal:
		// Local fan-out to every other core offset; this rank covers its
		// own core offset's remote channel directly.
		c.fanLocal(kindBcastLocalFanout, payload)
		c.fanRemote(kindBcastDeliver, payload)
	case machine.NodeRemote:
		c.fanRemote(kindBcastRemoteDistribute, payload)
		c.fanLocal(kindBcastDeliver, payload)
	case machine.NLNR:
		// Local fan-out cores relay to their residue classes; this rank
		// covers its own class itself.
		c.fanLocal(kindBcastNLNRFanout, payload)
		c.fanNLNR(payload)
	}
}

// fanLocal queues one record of the given kind for every other core on
// this node.
func (c *core) fanLocal(kind recordKind, payload []byte) {
	topo := c.p.Topo()
	node, off := topo.Node(c.me), topo.Core(c.me)
	for k := 0; k < topo.Cores(); k++ {
		if k != off {
			c.place(c.rt.slotOf(topo.RankOf(node, k)), kind, machine.Nil, payload)
		}
	}
}

// fanRemote queues one record of the given kind for this core offset on
// every other node.
func (c *core) fanRemote(kind recordKind, payload []byte) {
	topo := c.p.Topo()
	node, off := topo.Node(c.me), topo.Core(c.me)
	for n := 0; n < topo.Nodes(); n++ {
		if n != node {
			c.place(c.rt.slotOf(topo.RankOf(n, off)), kind, machine.Nil, payload)
		}
	}
}

// fanNLNR queues the NLNR remote-distribution stage for this rank's
// residue class: one record per other node n' with n' mod C == this
// core's offset, addressed to core (myNode mod C).
func (c *core) fanNLNR(payload []byte) {
	topo := c.p.Topo()
	node, off := topo.Node(c.me), topo.Core(c.me)
	for n := off; n < topo.Nodes(); n += topo.Cores() {
		if n != node {
			c.place(c.rt.slotOf(topo.NLNRRemoteIntermediary(node, n)), kindBcastNLNRDistribute, machine.Nil, payload)
		}
	}
}

// stageOf returns the first stage after `after` whose slot range holds
// slot, or -1 if none remains in the current exchange.
func (c *core) stageOf(slot int32, after int) int {
	for s := after + 1; s < len(c.stages); s++ {
		if st := &c.stages[s]; uint32(slot-st.base) < uint32(len(st.cur)) {
			return s
		}
	}
	return -1
}

// place appends one record to the coalescing buffer of the hop at slot
// i: in the earliest stage of the running exchange that can still carry
// it, otherwise in the next generation of the earliest stage that
// carries it at all.
func (c *core) place(i int32, kind recordKind, dst machine.Rank, payload []byte) {
	var b *hopBuf
	if s := c.stageOf(i, c.inStage); s >= 0 {
		st := &c.stages[s]
		b = &st.cur[i-st.base]
	} else {
		st := &c.stages[c.stageOf(i, -1)]
		b = &st.next[i-st.base]
	}
	if b.count == 0 {
		b.w.Arm(coalesceArmBytes)
		c.active = append(c.active, b)
	}
	appendRecord(&b.w, kind, dst, payload)
	b.count++
	c.queued++
	c.opts.tapQueued(c.me, b.hop, dst, kind, payload)
}

// coalesceArmBytes is the storage each coalescing buffer is armed with
// when it takes its first record: roughly one flush's worth for typical
// record sizes, claimed in a single allocation instead of letting the
// first fill double its way up from empty. Buffers keep their storage
// across exchanges, so arming is a capacity check after warmup.
const coalesceArmBytes = 256

// take empties b into a pooled payload for the transport and re-arms
// its writer. It copies the packed bytes into a pool-recycled buffer
// (modeling the send-side copy onto the wire); the payload returns to
// the pool when the receiver recycles the packet, so steady-state
// exchanges allocate nothing.
func (c *core) take(b *hopBuf) []byte {
	c.stats.HopsSent += uint64(b.count)
	c.queued -= b.count
	b.count = 0
	payload := c.p.AcquireBuf(b.w.Len())
	copy(payload, b.w.Bytes())
	b.w.Reset()
	return payload
}

// promote ends a staged exchange: records placed too late for it become
// the current generation of the following one.
func (c *core) promote() {
	c.inStage = -1
	for s := range c.stages {
		st := &c.stages[s]
		st.cur, st.next = st.next, st.cur
	}
	c.active = c.active[:0]
}

// decode parses and dispatches every record of one packet body received
// from src. Forwarded payloads are re-encoded into coalescing buffers
// and deliveries return before decode does, so the caller may recycle
// the body right after.
func (c *core) decode(src machine.Rank, body []byte) {
	reorder := c.opts.reorderPacket(c.me, src)
	var held record
	var haveHeld bool
	world := c.p.WorldSize()
	r := codec.NewReader(body)
	for r.Remaining() > 0 {
		rec, err := parseRecord(r, world)
		if err != nil {
			panic(fmt.Sprintf("ygm: rank %d corrupt packet from %d: %v", c.me, src, err))
		}
		c.stats.HopsRecv++
		// Per-record handling is a few nanoseconds plus a memcpy; the
		// per-message overhead was already charged when the packet was
		// received. Coalescing amortizes exactly this difference.
		c.p.Compute(c.cost.handling(len(rec.payload)))
		if reorder && !haveHeld {
			// Mutation hook: the first record waits until the rest of
			// the packet has dispatched; its payload stays valid because
			// the body is recycled only after decode returns.
			held, haveHeld = rec, true
			continue
		}
		c.dispatch(rec)
	}
	if haveHeld {
		c.dispatch(held)
	}
}

// dispatch delivers or forwards one record according to its kind.
// Forwarded payloads are copied into the destination buffer by
// appendRecord itself, so no intermediate per-record copy is needed.
func (c *core) dispatch(rec record) {
	switch rec.kind {
	case kindUnicast:
		if rec.dst == c.me {
			c.deliver(rec.payload)
			return
		}
		c.place(c.rt.route(c.rt.hooked(rec.dst)), kindUnicast, rec.dst, rec.payload)
	case kindBcastDeliver:
		c.deliver(rec.payload)
	case kindBcastLocalFanout:
		c.deliver(rec.payload)
		c.fanRemote(kindBcastDeliver, rec.payload)
	case kindBcastRemoteDistribute, kindBcastNLNRDistribute:
		c.deliver(rec.payload)
		c.fanLocal(kindBcastDeliver, rec.payload)
	case kindBcastNLNRFanout:
		c.deliver(rec.payload)
		c.fanNLNR(rec.payload)
	default:
		panic(fmt.Sprintf("ygm: unknown record kind %d", rec.kind))
	}
}

// deliver invokes the handler, charging the per-message compute cost;
// the drop and leak mutation hooks intercept it first.
func (c *core) deliver(payload []byte) {
	if c.opts.dropDelivery(c.me, payload) {
		return
	}
	if !c.leakHeld && c.opts.leakDelivery(c.me, payload) {
		// The payload aliases a packet buffer about to be recycled.
		c.leakStash = append(c.leakStash[:0], payload...)
		c.leakHeld = true
		return
	}
	c.deliverNow(payload)
}

// releaseLeak delivers the stashed leak, if any. Policies call it at the
// start of each pass of their quiescence loop and do not let a phase end
// while a leak is held, so a leaked delivery re-enters late and what its
// handler spawns still rides the same phase; and once more after the
// verdict, so that a stash can never outlive the barrier and turn the
// mutant into a lost delivery.
func (c *core) releaseLeak() {
	if c.leakHeld {
		c.leakHeld = false
		c.deliverNow(c.leakStash)
	}
}

// deliverNow is the undeflected tail of deliver.
func (c *core) deliverNow(payload []byte) {
	c.stats.Delivered++
	c.p.Compute(c.cost.perMsg)
	c.depth++
	c.handler(c.self, payload)
	c.depth--
}

// notInHandler panics when call, a blocking entry point, is made from a
// receive callback. The callback runs inside delivery: waiting there for
// the other ranks stalls this rank's own delivery loop, and a nested
// WaitEmpty can consume the verdict the outer one waits for.
func (c *core) notInHandler(call string) {
	if c.depth > 0 {
		panic(fmt.Sprintf("ygm: rank %d: %s called from inside a handler", c.me, call))
	}
}
